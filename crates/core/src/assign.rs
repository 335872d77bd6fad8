use std::sync::{Arc, OnceLock};

use protemp_cvx::{
    CellSeed, CertScratch, Certificate, ColumnScreen, FamilySolver, Problem, ProblemFamily,
    ProblemView, Solution, SolveStatus, SolverOptions,
};
use protemp_sim::Platform;
use protemp_thermal::{
    AffineReach, DiscreteModel, IntegrationMethod, ModalModel, ModalReach, ModalSpec, RcNetwork,
};
use serde::{Deserialize, Serialize};

use crate::problem::{
    build_problem, build_problem_modal, f_var, fill_point_rhs, fill_point_rhs_modal, p_var,
    tgrad_var,
};
use crate::{ControlConfig, Result};

/// How many *freshly minted* infeasibility certificates a [`CertPool`]
/// keeps, most recently useful first. The sweep's frontier moves
/// monotonically, so a tiny MRU pool covers every screening opportunity in
/// practice while keeping the miss cost (a handful of matvec-cheap checks)
/// bounded. Certificates inherited from a prior build
/// ([`CertPool::preload`]) live outside this cap: they cover the *whole*
/// prior frontier and every one of them may be the only killer for some
/// column of a finer grid.
pub(crate) const MAX_CERTIFICATES: usize = 6;

/// An MRU pool of infeasibility certificates with a reusable check
/// workspace — the screening state shared by [`PointSolver`] (the table
/// sweep), the MPC bisection behind [`crate::OnlineController`] and
/// [`crate::LadderController`] (DFS windows) and the frontier prober.
/// Certificates enter either freshly minted from a failed phase I
/// ([`CertPool::remember`], capped at [`MAX_CERTIFICATES`]) or inherited
/// from a persisted prior build ([`CertPool::preload`], never evicted).
/// Screening hits against inherited certificates are counted separately:
/// they are the work an incremental rebuild avoided re-proving.
#[derive(Debug, Clone, Default)]
pub(crate) struct CertPool {
    /// `(certificate, inherited)`, most recently useful first.
    entries: Vec<(Certificate, bool)>,
    ws: CertScratch,
    inherited: usize,
    inherited_hits: u64,
    /// Bumped on every mutation of the entry list (preload, remember, MRU
    /// rotation). Batched screens cache per-certificate preparation and
    /// per-cell verdicts keyed by this epoch: a matching epoch guarantees
    /// the pool holds the same certificates in the same check order as
    /// when the cache was filled, so consuming a cached verdict is
    /// bit-identical to re-screening.
    epoch: u64,
}

impl CertPool {
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Screens hit against certificates inherited via [`CertPool::preload`].
    pub(crate) fn inherited_hits(&self) -> u64 {
        self.inherited_hits
    }

    /// The pool's mutation epoch (see the `epoch` field).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pooled certificates in check order (the order
    /// [`CertPool::screen_view`] tries them). Valid until the next
    /// mutation; pair with [`CertPool::epoch`] to detect staleness.
    pub(crate) fn certificates(&self) -> impl Iterator<Item = &Certificate> {
        self.entries.iter().map(|(c, _)| c)
    }

    /// Adds verified certificates from a prior build (exempt from the MRU
    /// cap, initially behind every minted certificate in check order).
    pub(crate) fn preload(&mut self, certs: impl IntoIterator<Item = Certificate>) {
        for c in certs {
            self.entries.push((c, true));
            self.inherited += 1;
            self.epoch += 1;
        }
    }

    /// Adds a freshly minted certificate at the front, evicting the least
    /// recently useful *minted* certificate beyond [`MAX_CERTIFICATES`].
    pub(crate) fn remember(&mut self, cert: Certificate) {
        self.entries.insert(0, (cert, false));
        if self.entries.len() > MAX_CERTIFICATES + self.inherited {
            if let Some(pos) = self.entries.iter().rposition(|(_, inherited)| !inherited) {
                self.entries.remove(pos);
            }
        }
        self.epoch += 1;
    }

    /// Applies the bookkeeping of a screening hit at check-order index
    /// `hit`: counts inherited hits and rotates the winner to the front
    /// (neighbouring cells will hit it again). Shared by the scalar
    /// [`CertPool::screen_view`] and the batched column screens, which
    /// compute the hit index externally against
    /// [`CertPool::certificates`].
    pub(crate) fn apply_hit(&mut self, hit: usize) {
        if self.entries[hit].1 {
            self.inherited_hits += 1;
        }
        self.entries[..=hit].rotate_right(1);
        self.epoch += 1;
    }

    /// `true` when some pooled certificate proves the viewed problem
    /// infeasible; the winner moves to the front (neighbouring cells will
    /// hit it again). Views come from a family + cell rhs
    /// ([`ProblemFamily::view_with`]).
    pub(crate) fn screen_view(&mut self, view: ProblemView<'_>) -> bool {
        let ws = &mut self.ws;
        match self
            .entries
            .iter()
            .position(|(c, _)| c.certifies_view(view, ws))
        {
            Some(hit) => {
                self.apply_hit(hit);
                true
            }
            None => false,
        }
    }
}

/// Legacy blend factor pulling a boundary-degenerate warm-start point a
/// hair toward the strictly interior heuristic seed, used when
/// [`SolverOptions::reentry_pullback`] is `0`. A neighbouring optimum can
/// sit machine-epsilon-close to a degenerate constraint face (the pairwise
/// gradient rows at low targets do this, with slacks down at `1e-17`),
/// where the log barrier is numerically hopeless and every warm link
/// stalls into a cold climb. The blend lifts those slacks into real `f64`
/// territory while staying close to the optimum. Constraint concavity
/// guarantees the blend of two feasible points stays feasible. Healthy
/// warm points (slacks around `1/t_final`) are passed through untouched —
/// blending those would only force a pointless partial re-climb.
///
/// The default *stall-proof re-entry* blends harder
/// (`reentry_pullback = 1e-3` toward the interior heuristic, an
/// analytic-center estimate): the hair's-breadth blend lifts a `1e-17`
/// slack only to ~`1e-9` of the heuristic's clearance, still inside the
/// numerically hopeless zone, which is why the 100–300 MHz columns' warm
/// chains kept dying (ROADMAP item). The decision is a pure function of
/// the seed and the target cell's own rows, so incremental replays (which
/// carry seeds but no solver state) reproduce it exactly.
const WARM_PULLBACK: f64 = 1e-7;

/// Worst-slack threshold below which a warm-start point counts as
/// degenerate and gets the re-entry blend.
const WARM_DEGENERATE_SLACK: f64 = 1e-12;

/// A warm seed after the boundary-degeneracy check: the (possibly
/// blended) start point plus whether the stall-proof re-entry fired
/// (counted as `chain_reentries` by sweeps).
struct PreparedSeed {
    x: Vec<f64>,
    reentry: bool,
}

/// Shared warm-seed preparation for the one-shot and family solve paths:
/// measures the seed's worst slack against the target cell's own rows and
/// applies the re-entry blend toward the interior heuristic when the seed
/// is boundary-degenerate. Pure function of `(view, x0, options)` — the
/// replay-safety contract.
fn prepare_warm_seed(
    view: ProblemView<'_>,
    platform: &Platform,
    cfg: &ControlConfig,
    opts: &SolverOptions,
    ftarget_hz: f64,
    x0: &[f64],
) -> PreparedSeed {
    if view.max_violation(x0) > -WARM_DEGENERATE_SLACK {
        let h = heuristic_start(platform, cfg, ftarget_hz);
        let (alpha, reentry) = if opts.reentry_pullback > 0.0 {
            (opts.reentry_pullback, true)
        } else {
            (WARM_PULLBACK, false)
        };
        let x = x0
            .iter()
            .zip(&h)
            .map(|(&a, &b)| a + alpha * (b - a))
            .collect();
        PreparedSeed { x, reentry }
    } else {
        PreparedSeed {
            x: x0.to_vec(),
            reentry: false,
        }
    }
}

/// Pre-computed machinery for solving design points on one platform:
/// the RC network, the discrete model, the reachability operator and the
/// lazily-built sweep-shared [`ProblemFamily`] (all independent of the
/// starting temperature, so they are built once and shared across the
/// whole Phase-1 sweep).
#[derive(Debug)]
pub struct AssignmentContext {
    platform: Platform,
    cfg: ControlConfig,
    net: RcNetwork,
    reach: AffineReach,
    /// Banded reduced constraint structure, present exactly when the
    /// config enables modal truncation (`modal_order`/`modal_tol`). With
    /// it, [`AssignmentContext::point_problem`] and
    /// [`AssignmentContext::point_rhs_into`] emit the conservative
    /// reduced rows instead of the per-step full rows.
    modal: Option<Arc<ModalReach>>,
    solver_opts: SolverOptions,
    /// Sweep-shared problem structure, built on first use and shared (via
    /// `Arc`) by every worker's [`FamilySolver`]. Reset whenever the
    /// solver options change (the options shape the family's reduction
    /// analysis and are part of the fingerprint).
    family: OnceLock<Arc<ProblemFamily>>,
}

impl Clone for AssignmentContext {
    fn clone(&self) -> Self {
        let family = OnceLock::new();
        if let Some(f) = self.family.get() {
            let _ = family.set(Arc::clone(f));
        }
        AssignmentContext {
            platform: self.platform.clone(),
            cfg: self.cfg,
            net: self.net.clone(),
            reach: self.reach.clone(),
            modal: self.modal.clone(),
            solver_opts: self.solver_opts,
            family,
        }
    }
}

impl AssignmentContext {
    /// Builds the context.
    ///
    /// # Errors
    ///
    /// Propagates configuration and thermal-model failures.
    pub fn new(platform: &Platform, cfg: &ControlConfig) -> Result<Self> {
        cfg.validate()?;
        platform
            .validate()
            .map_err(|reason| crate::ProTempError::BadConfig { reason })?;
        let net = platform.rc_network();
        let model = DiscreteModel::new(
            &net,
            cfg.dt_us as f64 / 1e6,
            IntegrationMethod::ForwardEuler,
        )?;
        // Watch list convention: the core nodes first (global limit), then
        // every per-node capped block in configured order (its own cap).
        // `fill_point_rhs` / `fill_point_rhs_modal` rely on exactly this
        // ordering to assign per-row limits.
        let mut watch = net.core_nodes().to_vec();
        watch.extend(platform.resolved_node_caps().iter().map(|&(node, _)| node));
        let reach = AffineReach::with_watch(&net, &model, cfg.steps_per_window(), watch)?;
        let modal = match (cfg.modal_order, cfg.modal_tol) {
            (None, None) => None,
            (order, tol) => {
                let spec = match (order, tol) {
                    (Some(r), _) => ModalSpec::Order(r),
                    (_, Some(f)) => ModalSpec::Tol(f),
                    _ => unreachable!("validate() rejects both knobs unset here"),
                };
                let mm = ModalModel::reduce(&net, &model, cfg.steps_per_window(), spec)?;
                let mr = ModalReach::new(
                    &mm,
                    &reach,
                    platform.max_core_peak_power(),
                    cfg.gradient_stride.max(1),
                    cfg.modal_temp_budget_c(),
                    cfg.modal_grad_budget_c(),
                )?;
                Some(Arc::new(mr))
            }
        };
        Ok(AssignmentContext {
            platform: platform.clone(),
            cfg: *cfg,
            net,
            reach,
            modal,
            solver_opts: SolverOptions::fast(),
            family: OnceLock::new(),
        })
    }

    /// The platform this context solves for.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The control configuration.
    pub fn config(&self) -> &ControlConfig {
        &self.cfg
    }

    /// The RC network (exposed for diagnostics and tests).
    pub fn network(&self) -> &RcNetwork {
        &self.net
    }

    /// The reachability operator.
    pub fn reach(&self) -> &AffineReach {
        &self.reach
    }

    /// The banded modal reduction, when the config enables it.
    pub fn modal_reach(&self) -> Option<&ModalReach> {
        self.modal.as_deref()
    }

    /// Thermal constraint rows (temperature + gradient) the *full* model
    /// carries per design point. Temperature rows cover every watched
    /// node (cores plus capped blocks); gradient rows pair cores only.
    pub fn thermal_rows_full(&self) -> usize {
        let n = self.platform.num_cores();
        let nw = self.reach.watch().len();
        let m = self.reach.steps();
        let grad = if self.cfg.tgrad_weight > 0.0 {
            n * (n - 1) * m.div_ceil(self.cfg.gradient_stride.max(1))
        } else {
            0
        };
        m * nw + grad
    }

    /// Thermal constraint rows each design point actually solves with:
    /// the banded reduced count under modal truncation, otherwise the full
    /// count.
    pub fn thermal_rows_reduced(&self) -> usize {
        match &self.modal {
            Some(mr) => {
                let grad = if self.cfg.tgrad_weight > 0.0 {
                    mr.reduced_grad_rows()
                } else {
                    0
                };
                mr.reduced_temp_rows() + grad
            }
            None => self.thermal_rows_full(),
        }
    }

    /// Wall-clock seconds spent building the modal basis and the banded
    /// reduction (0 when modal truncation is off).
    pub fn modal_build_seconds(&self) -> f64 {
        self.modal.as_ref().map_or(0.0, |mr| mr.build_seconds())
    }

    /// Overrides the solver options (default: [`SolverOptions::fast`]).
    /// Drops the cached [`ProblemFamily`], whose structure (and
    /// fingerprint) the options participate in.
    pub fn set_solver_options(&mut self, opts: SolverOptions) {
        self.solver_opts = opts;
        self.family = OnceLock::new();
    }

    /// The solver options design-point solves run with.
    pub fn solver_options(&self) -> &SolverOptions {
        &self.solver_opts
    }

    /// Offsets `o_k` for a uniform starting temperature, as the paper's
    /// Phase 1 iterates them.
    pub fn offsets_for(&self, tstart_c: f64) -> Vec<Vec<f64>> {
        self.reach.offsets(&self.net.uniform_state(tstart_c))
    }

    /// Builds the convex program for one design point as a standalone
    /// [`Problem`] — the cell [`solve_assignment`] solves through the
    /// family, assembled independently of it, so certificate checks can
    /// run against it without trusting the family's storage.
    pub fn point_problem(&self, tstart_c: f64, ftarget_hz: f64) -> Problem {
        let offsets = self.offsets_for(tstart_c);
        match &self.modal {
            Some(mreach) => {
                build_problem_modal(&self.platform, &self.cfg, mreach, &offsets, ftarget_hz)
            }
            None => build_problem(&self.platform, &self.cfg, &self.reach, &offsets, ftarget_hz),
        }
    }

    /// The sweep-shared [`ProblemFamily`] for this context's design
    /// points, built once on first use: every grid cell's problem shares
    /// its coefficients, boxes, quadratic couplings, equalities and
    /// objective — only the linear rhs vary (see
    /// [`AssignmentContext::point_rhs_into`]). Workers clone the `Arc` and
    /// solve through per-worker [`FamilySolver`]s. Every solve in this
    /// crate — sweep cells, frontier probes, MPC windows and the one-shot
    /// [`solve_assignment`] — runs through it. Its prototype is the
    /// `(0 °C, 0 Hz)` point; a family's outputs do not depend on which
    /// cell's rhs its prototype carried.
    ///
    /// # Panics
    ///
    /// Panics if the family cannot be built — impossible for validated
    /// contexts, whose design-point data is finite and has no equality
    /// constraints beyond the consistent uniform-mode ones.
    pub fn family(&self) -> &Arc<ProblemFamily> {
        self.family.get_or_init(|| {
            let proto = self.point_problem(0.0, 0.0);
            Arc::new(
                ProblemFamily::new(proto, &self.solver_opts)
                    .expect("design-point problems form a valid family"),
            )
        })
    }

    /// Fills `rhs` with the linear right-hand sides of the design point
    /// `(offsets, ftarget_hz)` over the family's row layout: static (box)
    /// entries come from the prototype, the workload and thermal entries
    /// are recomputed — through the same `fill_point_rhs` that
    /// [`AssignmentContext::point_problem`] uses, so the rhs equals that
    /// standalone problem's bit for bit.
    pub fn point_rhs_into(&self, offsets: &[Vec<f64>], ftarget_hz: f64, rhs: &mut Vec<f64>) {
        let proto = self.family().prototype();
        rhs.clear();
        rhs.extend_from_slice(proto.lin_rhs());
        match &self.modal {
            Some(mreach) => {
                fill_point_rhs_modal(&self.platform, &self.cfg, mreach, offsets, ftarget_hz, rhs)
            }
            None => fill_point_rhs(&self.platform, &self.cfg, offsets, ftarget_hz, rhs),
        }
    }

    /// A 64-bit fingerprint of everything that determines a design-point
    /// solve besides the grid coordinates: the platform (floorplan, thermal
    /// parameters, frequency/power envelope), the control configuration and
    /// the solver options. Two contexts with equal fingerprints produce
    /// bit-identical solves of the same `(tstart, ftarget)` point, which is
    /// the precondition for [`crate::TableBuilder::build_incremental`] to
    /// reuse a persisted prior build's cells and certificates.
    pub fn fingerprint(&self) -> u64 {
        // Debug formatting of f64 prints the shortest round-trip
        // representation, so the digest covers every bit of every
        // parameter. The solver's semantic revision is folded in so that
        // algorithm changes (which alter solves without moving any option
        // field) retire persisted artifacts instead of replaying them as
        // if they were still bit-identical.
        crate::io::fnv1a(
            format!(
                "{:?}|{:?}|{:?}|rev{}",
                self.platform,
                self.cfg,
                self.solver_opts,
                protemp_cvx::SOLVER_REVISION
            )
            .as_bytes(),
        )
    }
}

/// The result of one design-point solve: the paper's per-core frequency
/// vector plus its power/gradient certificates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequencyAssignment {
    /// Per-core frequencies, Hz (core order).
    pub freqs_hz: Vec<f64>,
    /// Per-core powers at those frequencies, W.
    pub powers_w: Vec<f64>,
    /// The gradient bound `t_grad` achieved by the optimizer, °C
    /// (`None` when gradient minimization is disabled).
    pub tgrad_c: Option<f64>,
    /// Objective value (total power + weighted gradient).
    pub objective: f64,
}

impl FrequencyAssignment {
    /// Average core frequency, Hz.
    pub fn avg_freq_hz(&self) -> f64 {
        self.freqs_hz.iter().sum::<f64>() / self.freqs_hz.len() as f64
    }

    /// Total core power, W.
    pub fn total_power_w(&self) -> f64 {
        self.powers_w.iter().sum()
    }
}

/// Solves one design point of the paper's Phase 1: starting temperature
/// `tstart_c` (applied to every thermal node, as in Section 3.2) and
/// required average frequency `ftarget_hz`.
///
/// Returns `Ok(None)` when the point is infeasible — no assignment can
/// hold the temperature limit at that workload (the paper's "the
/// optimization notifies an infeasible solution").
///
/// One-shot convenience: a cold [`PointSolver::solve_point`] on a fresh
/// [`PointSolver`] over the context's shared
/// [`AssignmentContext::family`], which the first call builds. A sweep
/// holds one [`PointSolver`] instead, so the solver scratch, certificates
/// and warm starts carry across points.
///
/// # Errors
///
/// Propagates numerical solver failures, and
/// [`protemp_cvx::CvxError::NotFinite`] for a non-finite design point;
/// infeasibility is *not* an error.
pub fn solve_assignment(
    ctx: &AssignmentContext,
    tstart_c: f64,
    ftarget_hz: f64,
) -> Result<Option<FrequencyAssignment>> {
    let outcome = PointSolver::new(ctx).solve_point(tstart_c, ftarget_hz, None)?;
    Ok(outcome.solution.map(|p| p.assignment))
}

/// One feasible design-point solve: the assignment and the raw optimizer
/// point (what a neighbouring solve passes back as its warm start).
#[derive(Debug, Clone, PartialEq)]
pub struct SolvedPoint {
    /// The per-core frequency assignment.
    pub assignment: FrequencyAssignment,
    /// Raw solution vector in the problem's variable layout.
    pub x: Vec<f64>,
}

/// Outcome of one design-point solve: the Newton-step cost (a
/// deterministic work measure, unlike wall time — counted for infeasible
/// points too, whose phase-I certificates are often the most expensive
/// solves in a sweep) and the solution when the point is feasible.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// Raw solver verdict for the point. `Optimal` and `Infeasible` are
    /// certified; `Budgeted` marks a deterministic tick-budget truncation
    /// ([`protemp_cvx::SolverOptions::tick_budget`]) whose `solution` — if
    /// present — is a strictly feasible but non-optimal iterate, and
    /// whose absence means the verdict is *undecided*, not proven
    /// infeasible. Screened points report `Infeasible` (the certificate
    /// is a proof).
    pub status: SolveStatus,
    /// Newton steps the solve consumed (phases I and II; 0 when the point
    /// was screened).
    pub newton_steps: usize,
    /// Newton steps spent inside phase I (0 for warm-started or screened
    /// points) — the breakdown sweeps report as `phase1_solves`.
    pub phase1_steps: usize,
    /// `true` when an inherited infeasibility certificate rejected the
    /// point with one matvec, without invoking the solver at all.
    pub screened: bool,
    /// Linear rows the solver's box-grounded reduction pass pruned before
    /// the solve (0 when screened or reduction is off).
    pub rows_pruned: usize,
    /// `true` when the cell's infeasibility certificate was minted by the
    /// bounded polish continuation after a duality-gap-bound verdict.
    pub polished: bool,
    /// `true` when the warm seed was boundary-degenerate and the
    /// stall-proof re-entry blend fired before the solve (the sweeps'
    /// `chain_reentries`).
    pub reentry: bool,
    /// The solved point, or `None` when infeasible.
    pub solution: Option<SolvedPoint>,
}

/// Maps a solver solution to a [`PointOutcome`] (frequency/power
/// extraction for feasible points).
fn point_outcome(ctx: &AssignmentContext, sol: &Solution, reentry: bool) -> PointOutcome {
    let solution = match sol.status {
        SolveStatus::Infeasible => None,
        // A budget that died inside phase I leaves no point at all: the
        // verdict is undecided and there is nothing to extract (indexing
        // the empty `x` below would panic).
        SolveStatus::Budgeted if sol.x.is_empty() => None,
        _ => {
            let x = &sol.x;
            let n = ctx.platform.num_cores();
            let freqs_hz: Vec<f64> = (0..n)
                .map(|i| {
                    let ratio = ctx.platform.core_model(i).max_ratio;
                    x[f_var(i)].clamp(0.0, ratio) * ctx.platform.fmax_hz
                })
                .collect();
            let powers_w: Vec<f64> = (0..n).map(|i| x[p_var(n, i)]).collect();
            let tgrad_c = (ctx.cfg.tgrad_weight > 0.0).then(|| x[tgrad_var(n)]);
            let assignment = FrequencyAssignment {
                freqs_hz,
                powers_w,
                tgrad_c,
                objective: sol.objective,
            };
            Some(SolvedPoint {
                assignment,
                x: x.clone(),
            })
        }
    };
    PointOutcome {
        status: sol.status,
        newton_steps: sol.newton_steps,
        phase1_steps: sol.phase1_steps,
        screened: false,
        rows_pruned: sol.rows_pruned,
        polished: sol.polished,
        reentry,
        solution,
    }
}

/// A deterministic interior-leaning start for a design point: per-core
/// frequencies just above the (relaxed) target but strictly inside each
/// core's own frequency box, powers just above the frequency–power
/// coupling (including the leakage floor), and the gradient bound
/// mid-box. Everything except the temperature rows holds strictly, which
/// is the best geometry phase I can ask for.
fn heuristic_start(platform: &Platform, cfg: &ControlConfig, ftarget_hz: f64) -> Vec<f64> {
    let n = platform.num_cores();
    let fr = (ftarget_hz / platform.fmax_hz).clamp(0.0, 1.0);
    let mut x0 = vec![0.0; 2 * n + 1];
    for i in 0..n {
        let cm = platform.core_model(i);
        let rr = cm.max_ratio;
        let phi = (fr * 1.005).min(0.999 * rr);
        x0[f_var(i)] = phi;
        x0[p_var(n, i)] = (cm.pmax_w * (phi * phi + 0.02) + cm.leakage_w)
            .min(cm.pmax_w * (rr * rr) * 0.999 + cm.leakage_w);
    }
    x0[tgrad_var(n)] = 2.0 * cfg.tmax_c;
    x0
}

/// Bounded cache of thermal-offset trajectories keyed by the starting
/// temperature's bits. The table sweep revisits each grid temperature once
/// per column, so caching turns `rows × cols` offset propagations into
/// `rows`; the cap keeps controller-style callers (arbitrary observed
/// temperatures) from growing without bound. Cached values are bit-equal
/// to fresh computations (pure function), so reuse cannot move a solve.
#[derive(Debug, Clone, Default)]
pub(crate) struct OffsetsCache {
    entries: Vec<(u64, Vec<Vec<f64>>)>,
}

/// Offset trajectories are a few hundred small vectors each; 64 entries
/// cover any realistic grid while bounding worst-case memory.
const MAX_OFFSETS_CACHE: usize = 64;

impl OffsetsCache {
    pub(crate) fn get(&mut self, ctx: &AssignmentContext, tstart_c: f64) -> &[Vec<f64>] {
        let key = tstart_c.to_bits();
        let pos = match self.entries.iter().position(|(k, _)| *k == key) {
            Some(p) => p,
            None => {
                // Evict the *newest* entry when full: sweeps revisit
                // temperatures cyclically (column after column), where
                // FIFO/LRU would evict exactly the entry about to be
                // re-requested and the hit rate would collapse to zero
                // for grids larger than the cache. Keeping the stable
                // prefix caches the first MAX−1 temperatures forever and
                // churns one slot.
                if self.entries.len() >= MAX_OFFSETS_CACHE {
                    self.entries.pop();
                }
                self.entries.push((key, ctx.offsets_for(tstart_c)));
                self.entries.len() - 1
            }
        };
        &self.entries[pos].1
    }
}

/// Per-column batched-evaluation state carried by a [`PointSolver`]: the
/// fused [`ColumnScreen`] over one grid column's rhs panel (column-major,
/// one column per cell) and the panel coordinates it was computed for.
///
/// The cached *verdicts* are only consumed while the certificate pool's
/// epoch still matches `pool_epoch` (same certificates, same check order —
/// bit-identical to re-screening). The cached *kept-row masks* are pure
/// functions of each cell's rhs, so they stay valid across pool mutations.
#[derive(Debug, Clone, Default)]
struct BatchState {
    screen: ColumnScreen,
    /// Bit patterns of the screened cells' starting temperatures, panel
    /// order (`coords[i]` ↔ panel column `i`).
    coords: Vec<u64>,
    /// Bit pattern of the frequency target the panel was assembled for.
    ftarget_bits: u64,
    /// Pool epoch at screen time; gates verdict consumption.
    pool_epoch: u64,
    /// Whether the screen actually ran against the pool's certificates
    /// (false when screening was off — verdicts are vacuous misses and
    /// must not be consumed as real ones).
    certs_screened: bool,
    valid: bool,
    /// Column-major rhs panel (`m × coords.len()`), assembled through the
    /// same `point_rhs_into` path `prepare` uses, so panel columns are
    /// bit-identical to the per-cell rhs.
    panel: Vec<f64>,
    /// Scratch for assembling one panel column.
    col: Vec<f64>,
}

/// A per-worker design-point solver: one [`AssignmentContext`] borrow, a
/// [`FamilySolver`] over the context's sweep-shared [`ProblemFamily`]
/// whose scratch persists across points, and a small MRU pool of
/// infeasibility [`Certificate`]s harvested from failed phase-I runs.
///
/// [`PointSolver::prepare`] assembles only the cell's right-hand sides
/// (offsets cached per temperature) and [`PointSolver::solve_current`]
/// hands them to the family solver — no per-cell problem construction,
/// packing, or reduction re-analysis. [`PointSolver::screen_column`]
/// evaluates a whole grid column's certificate verdicts and kept-row
/// masks in one fused pass, which the per-cell screens and solves then
/// consume.
///
/// Each table-build worker thread owns one of these and chains warm starts
/// through it. With screening enabled ([`PointSolver::set_screening`]),
/// every solve first tries to reject the point against the pooled
/// certificates — one matvec each — before paying for phase I; the sweep's
/// feasibility frontier is monotone in temperature and frequency, so one
/// certificate typically kills every hotter/faster cell that follows it.
#[derive(Debug, Clone)]
pub struct PointSolver<'a> {
    ctx: &'a AssignmentContext,
    solver: FamilySolver,
    /// The prepared cell's linear rhs (family row layout).
    rhs: Vec<f64>,
    offsets: OffsetsCache,
    screening: bool,
    pool: CertPool,
    minted: Option<Certificate>,
    /// The `(tstart, ftarget)` `rhs` was prepared for.
    prepared: Option<(f64, f64)>,
    batch: BatchState,
}

impl<'a> PointSolver<'a> {
    /// Creates a solver for this context (screening off; the table builder
    /// turns it on explicitly so one-shot callers keep the plain
    /// behavior).
    pub fn new(ctx: &'a AssignmentContext) -> Self {
        PointSolver {
            ctx,
            solver: FamilySolver::new(Arc::clone(ctx.family()), ctx.solver_opts),
            rhs: Vec::new(),
            offsets: OffsetsCache::default(),
            screening: false,
            pool: CertPool::default(),
            minted: None,
            prepared: None,
            batch: BatchState::default(),
        }
    }

    /// The context this solver works against (the full `'a` borrow, so
    /// callers can keep it across mutable uses of the solver).
    pub fn context(&self) -> &'a AssignmentContext {
        self.ctx
    }

    /// Enables or disables certificate screening for subsequent solves.
    pub fn set_screening(&mut self, on: bool) {
        self.screening = on;
    }

    /// Runs one fused batched screen over a whole grid column of cells
    /// (`tstarts_c` × one `ftarget_hz`): assembles the column's rhs panel
    /// (column-major, one column per cell, through the same rhs path
    /// [`PointSolver::prepare`] uses), then computes every cell's
    /// certificate verdict and kept-row mask in one
    /// [`FamilySolver::screen_cells`] pass. Subsequent
    /// [`PointSolver::screen_current`] / [`PointSolver::solve_current`]
    /// calls on these cells consume the cached results instead of
    /// re-deriving them per cell; verdict consumption is epoch-gated so
    /// results stay bit-identical to screening each cell on its own.
    pub fn screen_column(&mut self, tstarts_c: &[f64], ftarget_hz: f64) {
        let batch = &mut self.batch;
        batch.valid = false;
        if tstarts_c.is_empty() {
            return;
        }
        batch.coords.clear();
        batch.panel.clear();
        for &t in tstarts_c {
            let off = self.offsets.get(self.ctx, t);
            self.ctx.point_rhs_into(off, ftarget_hz, &mut batch.col);
            batch.panel.extend_from_slice(&batch.col);
            batch.coords.push(t.to_bits());
        }
        // With screening off the pass still computes the kept-row masks
        // (pure rhs functions), just against an empty certificate list.
        let certs: Vec<&Certificate> = if self.screening {
            self.pool.certificates().collect()
        } else {
            Vec::new()
        };
        self.solver.screen_cells(
            &batch.panel,
            tstarts_c.len(),
            &certs,
            self.pool.epoch(),
            &mut batch.screen,
        );
        batch.ftarget_bits = ftarget_hz.to_bits();
        batch.pool_epoch = self.pool.epoch();
        batch.certs_screened = self.screening;
        batch.valid = true;
    }

    /// Panel index of the prepared cell in the current batch, if the
    /// batch covers it.
    fn batch_panel_position(&self, tstart_c: f64, ftarget_hz: f64) -> Option<usize> {
        if !self.batch.valid || self.batch.ftarget_bits != ftarget_hz.to_bits() {
            return None;
        }
        self.batch
            .coords
            .iter()
            .position(|&b| b == tstart_c.to_bits())
    }

    /// Like [`PointSolver::batch_panel_position`], but only for cells
    /// whose cached verdict was a miss — the ones that carry a kept-row
    /// mask (hit cells were meant to die at the screen, so no mask was
    /// computed for them). Does not check the pool epoch: the mask is a
    /// pure function of the cell rhs, valid regardless of later pool
    /// mutations.
    fn batch_cell_index(&self, tstart_c: f64, ftarget_hz: f64) -> Option<usize> {
        self.batch_panel_position(tstart_c, ftarget_hz)
            .filter(|&c| self.batch.screen.hit(c).is_none())
    }

    /// Number of infeasibility certificates currently held.
    pub fn certificate_count(&self) -> usize {
        self.pool.len()
    }

    /// Cumulative wall-clock seconds this solver spent inside the per-cell
    /// row-reduction pass (`reduce_s` telemetry).
    pub fn reduce_seconds(&self) -> f64 {
        self.solver.reduce_seconds()
    }

    /// Seeds the screening pool with certificates inherited from a prior
    /// build (verify them first — see
    /// [`crate::BuildArtifact::verify_certificates`]). Inherited
    /// certificates are exempt from the MRU eviction cap.
    pub fn preload_certificates(&mut self, certs: impl IntoIterator<Item = Certificate>) {
        self.pool.preload(certs);
    }

    /// Screens that hit an *inherited* (preloaded) certificate — the
    /// phase-I runs an incremental rebuild inherited instead of re-paying.
    pub fn inherited_screens(&self) -> u64 {
        self.pool.inherited_hits()
    }

    /// The certificate minted by the most recent infeasible solve, if that
    /// solve produced one (cleared by the take). The table builder uses
    /// this to persist frontier proofs next to the table.
    pub fn take_minted_certificate(&mut self) -> Option<Certificate> {
        self.minted.take()
    }

    /// Prepares one design point: assembles the cell's rhs (offsets cached
    /// per temperature). Must precede [`PointSolver::screen_current`] /
    /// [`PointSolver::solve_current`].
    pub fn prepare(&mut self, tstart_c: f64, ftarget_hz: f64) {
        let off = self.offsets.get(self.ctx, tstart_c);
        self.ctx.point_rhs_into(off, ftarget_hz, &mut self.rhs);
        self.prepared = Some((tstart_c, ftarget_hz));
    }

    /// Checks the prepared point against the pooled certificates only (no
    /// solve): `true` means certified infeasible. Updates the MRU order on
    /// a hit. Useful to kill a cell before paying for warm-start
    /// continuation hops toward it.
    ///
    /// # Panics
    ///
    /// Panics if no point is prepared.
    pub fn screen_current(&mut self) -> bool {
        let (tstart_c, ftarget_hz) = self.prepared.expect("prepare() must precede screening");
        if !self.screening || self.pool.is_empty() {
            return false;
        }
        // Batched fast path: the column screen already computed this
        // cell's verdict. Consuming it is bit-identical to re-screening
        // as long as the pool has not mutated since (same certificates,
        // same check order), which the epoch gate guarantees.
        if self.batch.valid
            && self.batch.certs_screened
            && self.batch.pool_epoch == self.pool.epoch()
        {
            if let Some(cell) = self.batch_panel_position(tstart_c, ftarget_hz) {
                return match self.batch.screen.hit(cell) {
                    Some(hit) => {
                        self.pool.apply_hit(hit);
                        true
                    }
                    None => false,
                };
            }
        }
        self.pool
            .screen_view(self.solver.family().view_with(&self.rhs))
    }

    /// Checks the point against the inherited certificates only (no
    /// solve): `true` means certified infeasible.
    ///
    /// # Errors
    ///
    /// Never fails today; `Result` for signature stability with the solve
    /// path.
    pub fn screen_infeasible(&mut self, tstart_c: f64, ftarget_hz: f64) -> Result<bool> {
        if !self.screening || self.pool.is_empty() {
            return Ok(false);
        }
        self.prepare(tstart_c, ftarget_hz);
        Ok(self.screen_current())
    }

    /// Solves one design point, optionally warm-starting from the raw
    /// optimizer point of a neighbouring solve. The outcome's solution `x`
    /// is exactly what the next neighbouring point should pass back as
    /// `warm`. A cold solve seeds phase I with a domain-informed start that
    /// satisfies the workload and coupling constraints by construction.
    ///
    /// With screening enabled, inherited certificates are tried first (a
    /// screened point returns `screened: true` with zero Newton steps) and
    /// any fresh certificate from a failed phase I joins the pool.
    ///
    /// # Errors
    ///
    /// Propagates numerical solver failures, and
    /// [`protemp_cvx::CvxError::NotFinite`] for a non-finite design point;
    /// infeasibility is *not* an error.
    pub fn solve_point(
        &mut self,
        tstart_c: f64,
        ftarget_hz: f64,
        warm: Option<&[f64]>,
    ) -> Result<PointOutcome> {
        self.prepare(tstart_c, ftarget_hz);
        self.solve_current(warm, true)
    }

    /// Solves the prepared design point (the builder's hot path — one
    /// preparation per cell serves the screen and the solve). `screen`
    /// lets a caller that just ran [`PointSolver::screen_current`] against
    /// an unchanged certificate pool skip the redundant re-check.
    ///
    /// # Errors
    ///
    /// Propagates numerical solver failures; infeasibility is *not* an
    /// error.
    ///
    /// # Panics
    ///
    /// Panics if no point is prepared.
    pub fn solve_current(&mut self, warm: Option<&[f64]>, screen: bool) -> Result<PointOutcome> {
        let (tstart_c, ftarget_hz) = self.prepared.expect("prepare() must precede solving");
        if screen && self.screen_current() {
            return Ok(PointOutcome {
                // A certificate screen is a proof of infeasibility.
                status: SolveStatus::Infeasible,
                newton_steps: 0,
                phase1_steps: 0,
                screened: true,
                rows_pruned: 0,
                polished: false,
                reentry: false,
                solution: None,
            });
        }
        let batched = self
            .batch_cell_index(tstart_c, ftarget_hz)
            .map(|c| (&self.batch.screen, c));
        let (outcome, cert) = solve_family_cell(
            self.ctx,
            &mut self.solver,
            &self.rhs,
            ftarget_hz,
            warm,
            batched,
        )?;
        if let Some(cert) = cert {
            self.minted = Some(cert.clone());
            self.pool.remember(cert);
        }
        Ok(outcome)
    }
}

/// Solves one family cell (given its rhs) with the shared warm-seed
/// preparation and outcome assembly, used by [`PointSolver`] and the
/// run-time MPC bisection. A warm start passes through the stall-proof
/// re-entry blend; a cold one seeds phase I with the heuristic start,
/// since starting from the origin makes phase I stall on thin frontier
/// cells and misreport them infeasible. When `batched` carries a
/// [`ColumnScreen`] and the cell's panel index, the solve consumes the
/// screen's cached kept-row mask instead of re-running row selection —
/// the mask is a pure function of the cell rhs, so the solve is
/// bit-identical either way.
pub(crate) fn solve_family_cell(
    ctx: &AssignmentContext,
    solver: &mut FamilySolver,
    rhs: &[f64],
    ftarget_hz: f64,
    warm: Option<&[f64]>,
    batched: Option<(&ColumnScreen, usize)>,
) -> Result<(PointOutcome, Option<Certificate>)> {
    let mut reentry = false;
    let seed: Option<Vec<f64>> = warm.map(|x0| {
        let ps = prepare_warm_seed(
            solver.family().view_with(rhs),
            &ctx.platform,
            &ctx.cfg,
            &ctx.solver_opts,
            ftarget_hz,
            x0,
        );
        reentry = ps.reentry;
        ps.x
    });
    let sol = match (&seed, batched) {
        (Some(x), Some((screen, cell))) => {
            solver.solve_cell_screened(rhs, CellSeed::Warm(x), screen, cell)?
        }
        (Some(x), None) => solver.solve_cell(rhs, CellSeed::Warm(x))?,
        (None, batched) => {
            let h = heuristic_start(&ctx.platform, &ctx.cfg, ftarget_hz);
            match batched {
                Some((screen, cell)) => {
                    solver.solve_cell_screened(rhs, CellSeed::Seeded(&h), screen, cell)?
                }
                None => solver.solve_cell(rhs, CellSeed::Seeded(&h))?,
            }
        }
    };
    let outcome = point_outcome(ctx, sol, reentry);
    let cert = if outcome.solution.is_none() {
        sol.certificate.clone()
    } else {
        None
    };
    Ok((outcome, cert))
}

/// Checks one design point's feasibility only (phase I from the origin,
/// no optimization), on the context's shared
/// [`AssignmentContext::family`].
///
/// A one-shot query: the frontier bisections of Figure 9 run their own
/// seeded, certificate-screened probes (see [`crate::frontier`]). Without
/// [`solve_assignment`]'s heuristic seed, phase I can report a razor-thin
/// frontier cell infeasible that a full solve finds feasible.
///
/// # Errors
///
/// Propagates numerical solver failures, and
/// [`protemp_cvx::CvxError::NotFinite`] for a non-finite design point.
pub fn check_feasible(ctx: &AssignmentContext, tstart_c: f64, ftarget_hz: f64) -> Result<bool> {
    let mut rhs = Vec::new();
    ctx.point_rhs_into(&ctx.offsets_for(tstart_c), ftarget_hz, &mut rhs);
    let mut solver = FamilySolver::new(Arc::clone(ctx.family()), ctx.solver_opts);
    Ok(solver.find_feasible_cell(&rhs, None)?.point.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FreqMode;

    fn ctx(cfg: ControlConfig) -> AssignmentContext {
        AssignmentContext::new(&Platform::niagara8(), &cfg).unwrap()
    }

    #[test]
    fn cool_start_supports_high_speed() {
        let ctx = ctx(ControlConfig::default());
        let a = solve_assignment(&ctx, 30.0, 0.9e9).unwrap();
        let a = a.expect("900 MHz feasible from a 30 C start");
        assert!(a.avg_freq_hz() >= 0.9e9 * 0.995, "avg {}", a.avg_freq_hz());
    }

    #[test]
    fn hot_start_rejects_full_speed_but_allows_reduced() {
        let ctx = ctx(ControlConfig::default());
        assert!(
            solve_assignment(&ctx, 92.0, 1.0e9).unwrap().is_none(),
            "full speed from 92 C must be infeasible"
        );
        let a = solve_assignment(&ctx, 92.0, 0.1e9).unwrap();
        assert!(a.is_some(), "100 MHz from 92 C should be feasible");
    }

    #[test]
    fn assignment_meets_target_and_power_rule() {
        let ctx = ctx(ControlConfig::default());
        let a = solve_assignment(&ctx, 70.0, 0.5e9).unwrap().unwrap();
        assert!(a.avg_freq_hz() >= 0.5e9 * 0.995, "avg {}", a.avg_freq_hz());
        // p ≈ pmax (f/fmax)² at the optimum (the relaxation is tight).
        for (f, p) in a.freqs_hz.iter().zip(&a.powers_w) {
            let expect = ctx.platform().core_power(*f);
            assert!(
                (p - expect).abs() < 0.05,
                "power {p:.3} vs rule {expect:.3}"
            );
        }
    }

    #[test]
    fn predicted_trajectory_respects_limit() {
        // Independent certificate: simulate the window with the returned
        // powers and check every core stays under t_max.
        let cfg = ControlConfig::default();
        let ctx = ctx(cfg);
        let tstart = 80.0;
        let a = solve_assignment(&ctx, tstart, 0.35e9).unwrap().unwrap();
        let offsets = ctx.offsets_for(tstart);
        for k in 1..=ctx.reach().steps() {
            let pred = ctx.reach().predict(k, &a.powers_w, &offsets);
            for (i, t) in pred.iter().enumerate() {
                assert!(
                    *t <= cfg.tmax_c + 1e-6,
                    "core {i} at step {k} reaches {t:.3} C"
                );
            }
        }
    }

    #[test]
    fn edge_cores_faster_than_middle_when_hot() {
        let ctx = ctx(ControlConfig::default());
        // Near the feasibility frontier the temperature constraints bind and
        // the optimizer exploits the floorplan asymmetry.
        let a = solve_assignment(&ctx, 80.0, 0.42e9).unwrap().unwrap();
        // P1 (edge, index 0) vs P2 (middle, index 1).
        assert!(
            a.freqs_hz[0] > a.freqs_hz[1],
            "edge core should run faster: P1 {} vs P2 {}",
            a.freqs_hz[0],
            a.freqs_hz[1]
        );
    }

    #[test]
    fn uniform_mode_equalizes_frequencies() {
        let cfg = ControlConfig {
            mode: FreqMode::Uniform,
            ..ControlConfig::default()
        };
        let ctx = ctx(cfg);
        let a = solve_assignment(&ctx, 70.0, 0.35e9).unwrap().unwrap();
        let f0 = a.freqs_hz[0];
        for f in &a.freqs_hz {
            assert!((f - f0).abs() < 1e-3 * f0, "uniform mode: {f} vs {f0}");
        }
    }

    #[test]
    fn warm_started_point_matches_cold_point() {
        let ctx = ctx(ControlConfig::default());
        let mut ps = PointSolver::new(&ctx);
        // Cold-solve a point, then warm-start its temperature neighbour.
        let seed = ps.solve_point(70.0, 0.5e9, None).unwrap().solution.unwrap();
        let warm = ps
            .solve_point(75.0, 0.5e9, Some(&seed.x))
            .unwrap()
            .solution
            .unwrap()
            .assignment;
        let cold = ps
            .solve_point(75.0, 0.5e9, None)
            .unwrap()
            .solution
            .unwrap()
            .assignment;
        assert!(
            (warm.avg_freq_hz() - cold.avg_freq_hz()).abs() < 1e-3 * cold.avg_freq_hz(),
            "warm {} vs cold {}",
            warm.avg_freq_hz(),
            cold.avg_freq_hz()
        );
        assert!(
            (warm.total_power_w() - cold.total_power_w()).abs()
                < 0.02 * cold.total_power_w().max(1.0),
            "warm {} vs cold {}",
            warm.total_power_w(),
            cold.total_power_w()
        );
    }

    #[test]
    fn feasibility_check_agrees_with_solver() {
        let ctx = ctx(ControlConfig::default());
        assert!(check_feasible(&ctx, 60.0, 0.6e9).unwrap());
        assert!(!check_feasible(&ctx, 95.0, 0.9e9).unwrap());
    }

    #[test]
    fn biglittle_respects_per_core_clocks_and_leakage() {
        let platform = Platform::biglittle8();
        let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).unwrap();
        let a = solve_assignment(&ctx, 50.0, 0.6e9).unwrap().unwrap();
        assert!(a.avg_freq_hz() >= 0.6e9 * 0.995, "avg {}", a.avg_freq_hz());
        for i in 0..8 {
            let fmax_i = platform.core_fmax(i);
            assert!(
                a.freqs_hz[i] <= fmax_i + 1.0,
                "core {i} exceeds its clock: {} > {fmax_i}",
                a.freqs_hz[i]
            );
            // Tight relaxation: p ≈ leak + pmax φ² with that core's model.
            let expect = platform.core_power_i(i, a.freqs_hz[i]);
            assert!(
                (a.powers_w[i] - expect).abs() < 0.05,
                "core {i} power {} vs rule {expect}",
                a.powers_w[i]
            );
        }
    }

    #[test]
    fn stacked3d_holds_memory_caps_in_prediction() {
        let platform = Platform::stacked3d();
        let cfg = ControlConfig::default();
        let ctx = AssignmentContext::new(&platform, &cfg).unwrap();
        // Watch list: 4 cores, then the 4 capped memory stripes.
        assert_eq!(ctx.reach().watch().len(), 8);
        let tstart = 70.0;
        let a = solve_assignment(&ctx, tstart, 0.5e9).unwrap().unwrap();
        let offsets = ctx.offsets_for(tstart);
        let n = platform.num_cores();
        let caps = platform.resolved_node_caps();
        for k in 1..=ctx.reach().steps() {
            let pred = ctx.reach().predict(k, &a.powers_w, &offsets);
            for (i, t) in pred.iter().enumerate() {
                let limit = if i < n { cfg.tmax_c } else { caps[i - n].1 };
                assert!(
                    *t <= limit + 1e-6,
                    "watched node {i} at step {k} reaches {t:.3} C (limit {limit})"
                );
            }
        }
    }

    #[test]
    fn scenario_fingerprints_differ() {
        let cfg = ControlConfig::default();
        let a = AssignmentContext::new(&Platform::niagara8(), &cfg).unwrap();
        let b = AssignmentContext::new(&Platform::biglittle8(), &cfg).unwrap();
        let c = AssignmentContext::new(&Platform::stacked3d(), &cfg).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(b.fingerprint(), c.fingerprint());
    }
}
