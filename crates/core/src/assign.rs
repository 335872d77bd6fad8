use std::sync::{Arc, OnceLock};
use std::time::Instant;

use protemp_cvx::{
    CellSeed, CertScratch, Certificate, FamilySolver, Problem, ProblemFamily, ProblemView,
    Solution, SolveStatus, SolverOptions,
};
use protemp_sim::Platform;
use protemp_thermal::{AffineReach, DiscreteModel, IntegrationMethod, RcNetwork};
use serde::{Deserialize, Serialize};

use crate::problem::{build_problem, f_var, fill_point_rhs, p_var, tgrad_var};
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
/// sweep), the MPC bisection behind [`crate::LadderController`] (DFS
/// windows) and the frontier prober.
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
    /// Cumulative wall-clock seconds inside [`CertPool::screen_view`].
    screen_s: f64,
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

    /// Cumulative seconds spent screening views against the pool.
    pub(crate) fn screen_seconds(&self) -> f64 {
        self.screen_s
    }

    /// Adds verified certificates from a prior build (exempt from the MRU
    /// cap, initially behind every minted certificate in check order).
    pub(crate) fn preload(&mut self, certs: impl IntoIterator<Item = Certificate>) {
        for c in certs {
            self.entries.push((c, true));
            self.inherited += 1;
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
    }

    /// `true` when some pooled certificate proves the viewed problem
    /// infeasible; the winner moves to the front (neighbouring cells will
    /// hit it again) and a hit on an inherited certificate is counted.
    /// Views come from a family + cell rhs ([`ProblemFamily::view_with`]).
    pub(crate) fn screen_view(&mut self, view: ProblemView<'_>) -> bool {
        let t0 = Instant::now();
        let ws = &mut self.ws;
        let hit = self
            .entries
            .iter()
            .position(|(c, _)| c.certifies_view(view, ws));
        self.screen_s += t0.elapsed().as_secs_f64();
        let Some(hit) = hit else {
            return false;
        };
        if self.entries[hit].1 {
            self.inherited_hits += 1;
        }
        self.entries[..=hit].rotate_right(1);
        true
    }
}

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
/// applies the stall-proof re-entry blend when the seed is
/// boundary-degenerate. Pure function of `(view, x0, options)` — the
/// replay-safety contract.
///
/// A neighbouring optimum can sit machine-epsilon-close to a degenerate
/// constraint face (the pairwise gradient rows at low targets do this,
/// with slacks down at `1e-17`), where the log barrier is numerically
/// hopeless and every warm link stalls into a cold climb. The blend pulls
/// such a seed [`SolverOptions::reentry_pullback`] (default `1e-3`) of the
/// way toward the strictly interior heuristic seed, an analytic-center
/// estimate, lifting those slacks into real `f64` territory while staying
/// close to the optimum; a hair's-breadth blend of `1e-7` would lift a
/// `1e-17` slack only to ~`1e-9` of the heuristic's clearance, still
/// inside the hopeless zone, and the 100–300 MHz columns' warm chains
/// would keep dying. Constraint concavity guarantees the blend of two
/// feasible points stays feasible. Healthy warm points (slacks around
/// `1/t_final`) are passed through untouched — blending those would only
/// force a pointless partial re-climb.
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
        let alpha = opts.reentry_pullback;
        let x = x0
            .iter()
            .zip(&h)
            .map(|(&a, &b)| a + alpha * (b - a))
            .collect();
        PreparedSeed { x, reentry: true }
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
        // `fill_point_rhs` relies on exactly this ordering to assign
        // per-row limits.
        let mut watch = net.core_nodes().to_vec();
        watch.extend(platform.resolved_node_caps().iter().map(|&(node, _)| node));
        let reach = AffineReach::with_watch(&net, &model, cfg.steps_per_window(), watch)?;
        Ok(AssignmentContext {
            platform: platform.clone(),
            cfg: *cfg,
            net,
            reach,
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

    /// Thermal constraint rows (temperature + gradient) the full model
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
        build_problem(&self.platform, &self.cfg, &self.reach, &offsets, ftarget_hz)
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
        fill_point_rhs(&self.platform, &self.cfg, offsets, ftarget_hz, rhs);
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
    /// ([`protemp_cvx::FamilySolver::set_tick_budget`]) whose `solution`
    /// — if present — is a strictly feasible but non-optimal iterate, and
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
    /// `true` when a pooled infeasibility certificate rejected the point
    /// with one certificate check, without invoking the solver at all.
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

/// A per-worker design-point solver: one [`AssignmentContext`] borrow, a
/// [`FamilySolver`] over the context's sweep-shared [`ProblemFamily`]
/// whose scratch persists across points, and a small MRU pool of
/// infeasibility [`Certificate`]s harvested from failed phase-I runs.
///
/// [`PointSolver::prepare`] assembles only the cell's right-hand sides
/// (offsets cached per temperature) and [`PointSolver::solve_current`]
/// hands them to the family solver — no per-cell problem construction,
/// packing, or reduction re-analysis.
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
    /// The frequency target `rhs` was prepared for.
    prepared: Option<f64>,
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
        }
    }

    /// Enables or disables certificate screening for subsequent solves.
    pub fn set_screening(&mut self, on: bool) {
        self.screening = on;
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

    /// Cumulative wall-clock seconds this solver spent screening cells
    /// against its certificate pool (`screen_s` telemetry).
    pub fn screen_seconds(&self) -> f64 {
        self.pool.screen_seconds()
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
        self.prepared = Some(ftarget_hz);
    }

    /// Checks the prepared point against the pooled certificates only (no
    /// solve): `true` means certified infeasible. The pool holds the
    /// certificates this solver minted and any preloaded from a prior
    /// build; a hit updates its MRU order. Useful to kill a cell before
    /// paying for warm-start continuation hops toward it.
    ///
    /// # Panics
    ///
    /// Panics if no point is prepared.
    pub fn screen_current(&mut self) -> bool {
        assert!(self.prepared.is_some(), "prepare() must precede screening");
        if !self.screening || self.pool.is_empty() {
            return false;
        }
        self.pool
            .screen_view(self.solver.family().view_with(&self.rhs))
    }

    /// Solves one design point, optionally warm-starting from the raw
    /// optimizer point of a neighbouring solve. The outcome's solution `x`
    /// is exactly what the next neighbouring point should pass back as
    /// `warm`. A cold solve seeds phase I with a domain-informed start that
    /// satisfies the workload and coupling constraints by construction.
    ///
    /// With screening enabled, pooled certificates are tried first (a
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
        let ftarget_hz = self.prepared.expect("prepare() must precede solving");
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
        let (outcome, cert) =
            solve_family_cell(self.ctx, &mut self.solver, &self.rhs, ftarget_hz, warm)?;
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
/// cells and misreport them infeasible.
pub(crate) fn solve_family_cell(
    ctx: &AssignmentContext,
    solver: &mut FamilySolver,
    rhs: &[f64],
    ftarget_hz: f64,
    warm: Option<&[f64]>,
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
    let sol = match &seed {
        Some(x) => solver.solve_cell(rhs, CellSeed::Warm(x))?,
        None => {
            let h = heuristic_start(&ctx.platform, &ctx.cfg, ftarget_hz);
            solver.solve_cell(rhs, CellSeed::Seeded(&h))?
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
