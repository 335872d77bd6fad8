//! Deadline-bounded degraded-mode control: the fallback ladder.
//!
//! [`LadderController`] wraps the MPC-style online solve in a fixed
//! sequence of fallback rungs so that *every* DFS tick produces a safe
//! frequency vector within a deterministic iteration budget, whatever
//! fails — the solver, the sensors, or the table artifacts:
//!
//! 0. **Full MPC** — the convex program solved to a certified optimum.
//! 1. **Truncated solve** — the tick budget ran out mid-solve; the
//!    barrier's iterate is strictly feasible (it satisfies every thermal
//!    and workload constraint), merely suboptimal in power.
//! 2. **Table policy** — a Phase-1 certified [`FrequencyTable`] entry at
//!    a grid row at or above the measured temperature (served directly or
//!    through a [`TableReader`]).
//! 3. **Integral baseline** — the only uncertified rung: a clamped
//!    integral law, reachable only when *no* table covers the measured
//!    temperature, guard-banded (`INTEGRAL_GUARD_C` below the cap) and
//!    clamped to the demanded frequency.
//! 4. **Thermal-safe shutdown** — 0 Hz on every core, trivially safe.
//!
//! Every rung only rounds frequency *down* relative to a certified
//! answer: rungs 0–1 satisfy the full constraint set, rung 2 is a
//! certified entry keyed conservatively by the maximum temperature, rung
//! 3 never exceeds the demand, and rung 4 serves nothing at all.
//!
//! Transient solver failures (an `Err` from the solve, or a budget
//! truncation that decided nothing) trigger an exponential backoff: the
//! controller serves from the table for 1, 2, 4, … windows (capped)
//! before retrying the MPC rung, and a certified optimum resets the
//! backoff. Per-tick telemetry — rung occupancy, Newton spend, budget
//! overruns — is exposed through [`LadderTelemetry`] and the simulator's
//! `DfsPolicy::ladder_level` hook.
//!
//! With no table and no deadline, [`LadderController::new`]`(ctx, 0)` is
//! the plain MPC controller: every window with a finite reading and no
//! solver error is served from rungs 0–1 or certified shut down. Only a
//! non-finite reading or a solver `Err` reaches the fallback rungs, and
//! with no table those land on the guard-banded integral rung.

use std::sync::Arc;

use protemp_cvx::{Certificate, FamilySolver, SolveStatus};
use protemp_sim::{DfsPolicy, Observation, Platform};

use crate::assign::{solve_family_cell, CertPool, OffsetsCache};
use crate::{AssignmentContext, FrequencyTable, LookupRef, ServedLookup, SolvedPoint, TableReader};

/// °C added to the last good reading when a sensor goes non-finite: the
/// table rung is then keyed by a conservative (hotter) temperature.
const NAN_SENSOR_MARGIN_C: f64 = 3.0;

/// Guard band below the temperature cap inside which the uncertified
/// integral rung abdicates to shutdown.
const INTEGRAL_GUARD_C: f64 = 2.0;

/// Longest MPC backoff, in DFS windows.
const MAX_BACKOFF_WINDOWS: u64 = 8;

/// Integral-rung gain as a fraction of `f_max` per °C of headroom.
const INTEGRAL_GAIN_PER_C: f64 = 0.01;

/// One rung of the degradation ladder, ordered from full capability to
/// full shutdown. The numeric value is what
/// `DfsPolicy::ladder_level` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LadderRung {
    /// Certified optimal MPC solve.
    FullMpc = 0,
    /// Deadline-truncated solve: strictly feasible, suboptimal.
    TruncatedSolve = 1,
    /// Phase-1 certified table entry.
    TablePolicy = 2,
    /// Uncertified guard-banded integral baseline.
    Integral = 3,
    /// Thermal-safe shutdown (0 Hz everywhere).
    Shutdown = 4,
}

impl LadderRung {
    /// All rungs, top (most capable) first.
    pub const ALL: [LadderRung; 5] = [
        LadderRung::FullMpc,
        LadderRung::TruncatedSolve,
        LadderRung::TablePolicy,
        LadderRung::Integral,
        LadderRung::Shutdown,
    ];
}

/// Where the certified table rung gets its answers.
#[derive(Debug)]
enum TableSource {
    /// No table available: the ladder skips straight to the integral rung.
    None,
    /// An owned Phase-1 table.
    Direct(FrequencyTable),
    /// A serving-tier reader (multi-resolution, refreshed snapshots).
    Service(TableReader),
}

/// What the table rung answered before rung assignment.
enum TableAnswer {
    Freqs(Vec<f64>),
    Shutdown,
    Miss,
}

/// Outcome of one window's MPC bisection.
enum MpcOutcome {
    /// A usable frequency vector, at rung 0 or 1.
    Served {
        freqs_hz: Vec<f64>,
        rung: LadderRung,
    },
    /// Every probe was *certified* infeasible: the demand and five
    /// halvings of it, or fewer when a halving fell below 1% of `f_max`.
    CertifiedShutdown,
    /// The solver erred or the budget expired undecided.
    Degrade,
}

/// The per-window MPC solve behind [`LadderController`]'s rungs 0–1:
/// bisect on the achievable target below the demand — try the demand,
/// halve on every certified-infeasible probe, at most six probes — through
/// the context's sweep-shared family.
///
/// Each probe is first screened against the pooled certificates (one
/// matvec each; a hit skips phase I), failed phase-I runs add their
/// certificates to the pool, and the served optimum warm-starts the next
/// window. Any window that is not served drops the carried point, so the
/// next window never warm-starts from a point solved for a different
/// (halved) target. A non-zero `tick_budget` caps the Newton steps of the
/// whole window: each probe is granted only what the window has left.
#[derive(Debug, Clone)]
struct MpcBisection {
    ctx: AssignmentContext,
    solver: FamilySolver,
    rhs: Vec<f64>,
    offsets: OffsetsCache,
    pool: CertPool,
    last_x: Option<Vec<f64>>,
    tick_budget: usize,
}

impl MpcBisection {
    fn new(ctx: AssignmentContext, tick_budget: usize) -> Self {
        let mut solver = FamilySolver::new(Arc::clone(ctx.family()), *ctx.solver_options());
        solver.set_tick_budget(tick_budget);
        MpcBisection {
            ctx,
            solver,
            rhs: Vec::new(),
            offsets: OffsetsCache::default(),
            pool: CertPool::default(),
            last_x: None,
            tick_budget,
        }
    }

    fn tick_budget(&self) -> usize {
        self.tick_budget
    }

    fn set_tick_budget(&mut self, budget: usize) {
        self.tick_budget = budget;
        self.solver.set_tick_budget(budget);
    }

    /// Runs one window's bisection at the measured temperature `temp_c`,
    /// counting probes, truncated serves and solver errors into `tel`.
    /// Returns the outcome and the Newton steps the window spent.
    fn run(
        &mut self,
        temp_c: f64,
        demand_hz: f64,
        fmax_hz: f64,
        tel: &mut LadderTelemetry,
    ) -> (MpcOutcome, usize) {
        let mut newton = 0;
        let mut target = demand_hz.min(fmax_hz);
        let outcome = 'window: {
            for _ in 0..6 {
                if self.tick_budget > 0 {
                    let remaining = self.tick_budget.saturating_sub(newton);
                    if remaining == 0 {
                        break 'window MpcOutcome::Degrade;
                    }
                    self.solver.set_tick_budget(remaining);
                }
                let off = self.offsets.get(&self.ctx, temp_c);
                self.ctx.point_rhs_into(off, target, &mut self.rhs);
                if self
                    .pool
                    .screen_view(self.solver.family().view_with(&self.rhs))
                {
                    tel.screened_probes += 1;
                } else {
                    let Ok((outcome, cert)) = solve_family_cell(
                        &self.ctx,
                        &mut self.solver,
                        &self.rhs,
                        target,
                        self.last_x.as_deref(),
                    ) else {
                        tel.solver_errors += 1;
                        break 'window MpcOutcome::Degrade;
                    };
                    newton += outcome.newton_steps;
                    if let Some(cert) = cert {
                        self.pool.remember(cert);
                    }
                    match (outcome.status, outcome.solution) {
                        // `MaxIterations` is the unbudgeted solver's
                        // natural termination at some design points (gap
                        // above tol after the outer cap). Only a deadline
                        // truncation is rung 1.
                        (SolveStatus::Optimal | SolveStatus::MaxIterations, Some(p)) => {
                            break 'window self.serve(p, LadderRung::FullMpc);
                        }
                        // A truncated iterate is strictly feasible — every
                        // thermal and workload constraint holds — just not
                        // power-optimal. Serve it rather than degrade.
                        (SolveStatus::Budgeted, Some(p)) => {
                            tel.truncated_serves += 1;
                            break 'window self.serve(p, LadderRung::TruncatedSolve);
                        }
                        (SolveStatus::Infeasible, _) => {}
                        // Budgeted with no point: the deadline expired
                        // before phase I decided anything.
                        _ => break 'window MpcOutcome::Degrade,
                    }
                }
                tel.infeasible_probes += 1;
                target *= 0.5;
                if target < fmax_hz * 0.01 {
                    break 'window MpcOutcome::CertifiedShutdown;
                }
            }
            MpcOutcome::CertifiedShutdown
        };
        if !matches!(outcome, MpcOutcome::Served { .. }) {
            self.last_x = None;
        }
        (outcome, newton)
    }

    /// Serves `p` at `rung` and carries its point into the next window.
    fn serve(&mut self, p: SolvedPoint, rung: LadderRung) -> MpcOutcome {
        self.last_x = Some(p.x);
        MpcOutcome::Served {
            freqs_hz: p.assignment.freqs_hz,
            rung,
        }
    }
}

/// Per-run ladder telemetry counters (all monotone).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LadderTelemetry {
    /// DFS ticks served.
    pub ticks: u64,
    /// Ticks served per rung (index = [`LadderRung`] value).
    pub rung_counts: [u64; 5],
    /// Ticks served from a deadline-truncated (rung 1) solve.
    pub truncated_serves: u64,
    /// Bisection probes rejected as certified infeasible (solve or screen).
    pub infeasible_probes: u64,
    /// Probes rejected by a pooled certificate in one matvec.
    pub screened_probes: u64,
    /// Solver `Err` returns (transient failures that trigger backoff).
    pub solver_errors: u64,
    /// Backoff episodes scheduled.
    pub backoffs: u64,
    /// Table-rung lookups with no covering table.
    pub table_misses: u64,
    /// Largest Newton spend of any single tick.
    pub max_tick_newton: usize,
    /// Newton steps the MPC rung spent over the whole run: the sum of
    /// every tick's spend.
    pub newton_steps: u64,
    /// Ticks whose Newton spend exceeded the configured budget. Always 0
    /// when the budget is honored (the fault-campaign bench asserts it).
    pub budget_overruns: u64,
}

/// The degraded-mode controller (see the module docs for the ladder).
///
/// Construct with [`LadderController::new`] (solver-only),
/// [`LadderController::with_table`] (plus an owned certified table) or
/// [`LadderController::with_service`] (plus a serving-tier reader); a
/// non-zero `tick_budget` caps the *total* Newton steps any single tick
/// may spend across all of its bisection probes.
#[derive(Debug)]
pub struct LadderController {
    mpc: MpcBisection,
    table: TableSource,
    /// Integral-rung command, Hz (clamped — the anti-windup).
    integral_cmd_hz: f64,
    /// First window at which the MPC rung may be retried.
    backoff_until_window: u64,
    /// Current backoff length, windows (0 = no failure since last reset).
    backoff_len: u64,
    /// Set by `DfsPolicy::inject_solver_timeout`; consumed by the next tick.
    forced_timeout: bool,
    /// Last finite max-core-temperature observed, °C.
    last_good_temp_c: f64,
    last_rung: LadderRung,
    telemetry: LadderTelemetry,
}

impl LadderController {
    /// Creates a ladder with no table rung (misses fall to the integral
    /// baseline). `tick_budget` of 0 disables the deadline.
    pub fn new(ctx: AssignmentContext, tick_budget: usize) -> Self {
        Self::build(ctx, tick_budget, TableSource::None)
    }

    /// As [`LadderController::new`], with an owned Phase-1 table backing
    /// the certified table rung.
    pub fn with_table(ctx: AssignmentContext, table: FrequencyTable, tick_budget: usize) -> Self {
        Self::build(ctx, tick_budget, TableSource::Direct(table))
    }

    /// As [`LadderController::new`], with a serving-tier reader backing
    /// the certified table rung.
    pub fn with_service(ctx: AssignmentContext, reader: TableReader, tick_budget: usize) -> Self {
        Self::build(ctx, tick_budget, TableSource::Service(reader))
    }

    fn build(ctx: AssignmentContext, tick_budget: usize, table: TableSource) -> Self {
        // Before the first reading arrives, assume the worst: a NaN-first
        // run keys the table at the cap and shuts down if nothing covers.
        let last_good_temp_c = ctx.config().tmax_c;
        LadderController {
            mpc: MpcBisection::new(ctx, tick_budget),
            table,
            integral_cmd_hz: 0.0,
            backoff_until_window: 0,
            backoff_len: 0,
            forced_timeout: false,
            last_good_temp_c,
            last_rung: LadderRung::FullMpc,
            telemetry: LadderTelemetry::default(),
        }
    }

    /// Seeds the screening pool with certificates from a prior build
    /// (e.g. the `certificate` of each
    /// [`crate::BuildArtifact::certificates`] entry after
    /// [`crate::BuildArtifact::verify_certificates`]). Screening is sound
    /// regardless — a certificate re-derives its infeasibility bound
    /// against each window's own constraint data and can never reject a
    /// feasible window — but verified certificates keep dead weight out
    /// of the pool.
    pub fn preload_certificates(&mut self, certs: impl IntoIterator<Item = Certificate>) {
        self.mpc.pool.preload(certs);
    }

    /// Replaces the per-tick Newton budget (0 disables it).
    pub fn set_tick_budget(&mut self, budget: usize) {
        self.mpc.set_tick_budget(budget);
    }

    /// The configured per-tick Newton budget (0 = unlimited).
    pub fn tick_budget(&self) -> usize {
        self.mpc.tick_budget()
    }

    /// The rung the most recent tick was served from.
    pub fn last_rung(&self) -> LadderRung {
        self.last_rung
    }

    /// Snapshot of the ladder's telemetry counters.
    pub fn telemetry(&self) -> LadderTelemetry {
        self.telemetry
    }

    fn schedule_backoff(&mut self, window: u64) {
        self.backoff_len = if self.backoff_len == 0 {
            1
        } else {
            (self.backoff_len * 2).min(MAX_BACKOFF_WINDOWS)
        };
        self.backoff_until_window = window + 1 + self.backoff_len;
        self.telemetry.backoffs += 1;
    }

    /// Rung 2 (falling through to 3/4): certified table lookup.
    fn table_rung(
        &mut self,
        temp_c: f64,
        demand_hz: f64,
        platform: &Platform,
    ) -> (Vec<f64>, LadderRung) {
        let n = platform.num_cores();
        let answer = match &mut self.table {
            TableSource::Service(reader) => match reader.lookup_served(temp_c, demand_hz) {
                ServedLookup::Covered(LookupRef::Run { freqs_hz, .. }) => {
                    TableAnswer::Freqs(freqs_hz.to_vec())
                }
                ServedLookup::Covered(LookupRef::Shutdown) => TableAnswer::Shutdown,
                ServedLookup::NoCoveringTable => TableAnswer::Miss,
            },
            TableSource::Direct(table) => {
                // Same covering rule as the serving tier: the hottest grid
                // row must round the measurement up (false for NaN).
                let covers = table
                    .tstarts_c()
                    .last()
                    .is_some_and(|&hottest| temp_c <= hottest);
                if covers {
                    match table.lookup_ref(temp_c, demand_hz) {
                        LookupRef::Run { freqs_hz, .. } => TableAnswer::Freqs(freqs_hz.to_vec()),
                        LookupRef::Shutdown => TableAnswer::Shutdown,
                    }
                } else {
                    TableAnswer::Miss
                }
            }
            TableSource::None => TableAnswer::Miss,
        };
        match answer {
            TableAnswer::Freqs(f) => (f, LadderRung::TablePolicy),
            // An in-grid shutdown is an honest certified verdict that no
            // safe operating point exists — respect it, don't fall past it.
            TableAnswer::Shutdown => (vec![0.0; n], LadderRung::Shutdown),
            TableAnswer::Miss => {
                self.telemetry.table_misses += 1;
                self.integral_rung(temp_c, demand_hz, platform)
            }
        }
    }

    /// Rung 3 (falling through to 4): the uncertified integral baseline.
    fn integral_rung(
        &mut self,
        temp_c: f64,
        demand_hz: f64,
        platform: &Platform,
    ) -> (Vec<f64>, LadderRung) {
        let n = platform.num_cores();
        let ceiling_c = self.mpc.ctx.config().tmax_c - INTEGRAL_GUARD_C;
        // Anything not provably inside the guard band — NaN included —
        // shuts down.
        if !temp_c.is_finite() || temp_c >= ceiling_c {
            self.integral_cmd_hz = 0.0;
            return (vec![0.0; n], LadderRung::Shutdown);
        }
        let headroom_c = ceiling_c - temp_c;
        // Clamping the integrator *is* the anti-windup: the command can
        // never wind past what the actuator delivers.
        self.integral_cmd_hz = (self.integral_cmd_hz
            + INTEGRAL_GAIN_PER_C * platform.fmax_hz * headroom_c)
            .clamp(0.0, platform.fmax_hz);
        let f = self.integral_cmd_hz.min(demand_hz.max(0.0));
        (
            (0..n).map(|i| f.min(platform.core_fmax(i))).collect(),
            LadderRung::Integral,
        )
    }
}

impl DfsPolicy for LadderController {
    fn name(&self) -> &str {
        "pro-temp-ladder"
    }

    fn frequencies(&mut self, obs: &Observation, platform: &Platform) -> Vec<f64> {
        self.telemetry.ticks += 1;
        // Newton steps spent inside this tick.
        let mut tick_newton = 0;
        let demand = obs.required_avg_freq_hz.min(platform.fmax_hz);
        let window = obs.window_index;
        let forced = std::mem::take(&mut self.forced_timeout);

        let (freqs, rung) = if !obs.max_core_temp.is_finite() {
            // A poisoned sensor can key neither the solver nor an honest
            // table row at face value: serve the table at a conservative
            // (hotter) temperature derived from the last good reading.
            let t = self.last_good_temp_c + NAN_SENSOR_MARGIN_C;
            self.table_rung(t, demand, platform)
        } else {
            self.last_good_temp_c = obs.max_core_temp;
            if forced {
                self.schedule_backoff(window);
                self.table_rung(obs.max_core_temp, demand, platform)
            } else if window < self.backoff_until_window {
                self.table_rung(obs.max_core_temp, demand, platform)
            } else {
                let (outcome, newton) = self.mpc.run(
                    obs.max_core_temp,
                    obs.required_avg_freq_hz,
                    platform.fmax_hz,
                    &mut self.telemetry,
                );
                tick_newton = newton;
                match outcome {
                    MpcOutcome::Served { freqs_hz, rung } => {
                        if rung == LadderRung::FullMpc {
                            // A full solve heals the ladder: reset the
                            // backoff ramp.
                            self.backoff_len = 0;
                        }
                        (freqs_hz, rung)
                    }
                    MpcOutcome::CertifiedShutdown => {
                        (vec![0.0; platform.num_cores()], LadderRung::Shutdown)
                    }
                    MpcOutcome::Degrade => {
                        self.schedule_backoff(window);
                        self.table_rung(obs.max_core_temp, demand, platform)
                    }
                }
            }
        };

        let budget = self.mpc.tick_budget();
        if budget > 0 && tick_newton > budget {
            self.telemetry.budget_overruns += 1;
        }
        self.telemetry.max_tick_newton = self.telemetry.max_tick_newton.max(tick_newton);
        self.telemetry.newton_steps += tick_newton as u64;
        self.telemetry.rung_counts[rung as usize] += 1;
        self.last_rung = rung;
        freqs
    }

    fn ladder_level(&self) -> Option<u8> {
        Some(self.last_rung as u8)
    }

    fn inject_solver_timeout(&mut self) {
        self.forced_timeout = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControlConfig, FreqMode, FrequencyAssignment};

    fn ctx() -> AssignmentContext {
        AssignmentContext::new(&Platform::niagara8(), &ControlConfig::default()).unwrap()
    }

    fn obs_at(window: u64, max_temp: f64, f_req: f64) -> Observation {
        Observation {
            window_index: window,
            core_temps: vec![max_temp; 8],
            max_core_temp: max_temp,
            required_avg_freq_hz: f_req,
            queue_len: 0,
            backlog_work_us: 0.0,
            utilization: vec![0.5; 8],
        }
    }

    fn wide_table() -> FrequencyTable {
        let asg = |mhz: f64| {
            Some(FrequencyAssignment {
                freqs_hz: vec![mhz * 1e6; 8],
                powers_w: vec![1.0; 8],
                tgrad_c: None,
                objective: 8.0,
            })
        };
        FrequencyTable::new(
            vec![70.0, 110.0],
            vec![0.3e9, 0.8e9],
            vec![asg(300.0), asg(800.0), asg(300.0), None],
            FreqMode::Variable,
        )
    }

    #[test]
    fn healthy_window_serves_full_mpc() {
        let platform = Platform::niagara8();
        let mut c = LadderController::new(ctx(), 0);
        let f = c.frequencies(&obs_at(0, 60.0, 0.5e9), &platform);
        assert_eq!(c.last_rung(), LadderRung::FullMpc);
        assert_eq!(c.ladder_level(), Some(0));
        let avg = f.iter().sum::<f64>() / f.len() as f64;
        assert!(avg >= 0.5e9 * 0.99, "avg {avg}");
        assert_eq!(c.telemetry().rung_counts[0], 1);
    }

    #[test]
    fn tiny_budget_truncates_to_rung_one_and_recovers() {
        let platform = Platform::niagara8();
        let mut c = LadderController::new(ctx(), 0);
        // Window 0: unbudgeted certified solve establishes a warm point.
        let _ = c.frequencies(&obs_at(0, 60.0, 0.5e9), &platform);
        assert_eq!(c.last_rung(), LadderRung::FullMpc);
        // Window 1: cooler chip, lower demand — the warm iterate stays
        // feasible but the optimum moved, and a 1-Newton-step deadline
        // cannot re-center it. The iterate is still feasible — rung 1,
        // not a degrade.
        c.set_tick_budget(1);
        let f = c.frequencies(&obs_at(1, 58.0, 0.35e9), &platform);
        assert_eq!(c.last_rung(), LadderRung::TruncatedSolve);
        assert!(f.iter().all(|x| x.is_finite() && *x >= 0.0));
        let t = c.telemetry();
        assert_eq!(t.truncated_serves, 1);
        // `max_tick_newton` spans the unbudgeted window 0 too — the
        // budgeted window's deadline is what `budget_overruns` audits.
        assert_eq!(t.budget_overruns, 0);
        // Window 2: deadline lifted — straight back to full MPC.
        c.set_tick_budget(0);
        let _ = c.frequencies(&obs_at(2, 58.0, 0.35e9), &platform);
        assert_eq!(c.last_rung(), LadderRung::FullMpc);
    }

    #[test]
    fn forced_timeout_serves_table_then_backs_off_then_recovers() {
        let platform = Platform::niagara8();
        let mut c = LadderController::with_table(ctx(), wide_table(), 0);
        c.inject_solver_timeout();
        let f = c.frequencies(&obs_at(0, 60.0, 0.3e9), &platform);
        assert_eq!(c.last_rung(), LadderRung::TablePolicy);
        assert!((f[0] - 0.3e9).abs() < 1.0, "table column served");
        // Window 1 is inside the backoff: still the table rung.
        let _ = c.frequencies(&obs_at(1, 60.0, 0.3e9), &platform);
        assert_eq!(c.last_rung(), LadderRung::TablePolicy);
        // Window 2: backoff expired, MPC retried and certified.
        let _ = c.frequencies(&obs_at(2, 60.0, 0.3e9), &platform);
        assert_eq!(c.last_rung(), LadderRung::FullMpc);
        assert_eq!(c.telemetry().backoffs, 1);
    }

    #[test]
    fn nan_sensor_uses_conservative_table_row() {
        let platform = Platform::niagara8();
        let mut c = LadderController::with_table(ctx(), wide_table(), 0);
        // Establish a last good reading.
        let _ = c.frequencies(&obs_at(0, 60.0, 0.3e9), &platform);
        // NaN sensor: table keyed at 60 + margin, still covered → rung 2.
        let f = c.frequencies(&obs_at(1, f64::NAN, 0.3e9), &platform);
        assert_eq!(c.last_rung(), LadderRung::TablePolicy);
        assert!(f.iter().all(|x| x.is_finite()));
        // Healthy again: back to full MPC.
        let _ = c.frequencies(&obs_at(2, 60.0, 0.3e9), &platform);
        assert_eq!(c.last_rung(), LadderRung::FullMpc);
    }

    #[test]
    fn nan_sensor_without_table_shuts_down_from_cold_start() {
        let platform = Platform::niagara8();
        let mut c = LadderController::new(ctx(), 0);
        // First-ever window reads NaN: last-good defaults to the cap, the
        // integral guard refuses, the ladder lands on shutdown.
        let f = c.frequencies(&obs_at(0, f64::NAN, 0.5e9), &platform);
        assert_eq!(c.last_rung(), LadderRung::Shutdown);
        assert!(f.iter().all(|&x| x == 0.0));
        assert_eq!(c.telemetry().table_misses, 1);
    }

    #[test]
    fn no_table_miss_falls_to_guarded_integral() {
        let platform = Platform::niagara8();
        let mut c = LadderController::new(ctx(), 0);
        // Healthy window first so last-good is cool.
        let _ = c.frequencies(&obs_at(0, 60.0, 0.5e9), &platform);
        c.inject_solver_timeout();
        let f = c.frequencies(&obs_at(1, 60.0, 0.5e9), &platform);
        assert_eq!(c.last_rung(), LadderRung::Integral);
        assert!(f.iter().all(|x| x.is_finite() && *x >= 0.0));
        let avg = f.iter().sum::<f64>() / f.len() as f64;
        assert!(avg <= 0.5e9 + 1.0, "integral rung never exceeds demand");
    }

    #[test]
    fn integral_rung_abdicates_near_the_cap() {
        let platform = Platform::niagara8();
        let mut c = LadderController::new(ctx(), 0);
        let _ = c.frequencies(&obs_at(0, 60.0, 0.5e9), &platform);
        c.inject_solver_timeout();
        // 99 °C is inside the guard band of the 100 °C cap.
        let f = c.frequencies(&obs_at(1, 99.0, 0.5e9), &platform);
        assert_eq!(c.last_rung(), LadderRung::Shutdown);
        assert!(f.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn certified_infeasible_all_the_way_down_shuts_down() {
        let platform = Platform::niagara8();
        let mut c = LadderController::new(ctx(), 0);
        let f = c.frequencies(&obs_at(0, 150.0, 0.5e9), &platform);
        assert_eq!(c.last_rung(), LadderRung::Shutdown);
        assert!(f.iter().all(|&x| x == 0.0));
        assert!(c.telemetry().infeasible_probes >= 1);
    }

    #[test]
    fn preloaded_certificate_screens_the_certified_probe() {
        use crate::PointSolver;
        let platform = Platform::niagara8();
        let ctx = ctx();
        // Mint a certificate at an infeasible design point (the same kind
        // the table store persists next to a build).
        let mut ps = PointSolver::new(&ctx);
        ps.set_screening(true);
        let out = ps.solve_point(100.0, 0.6e9, None).unwrap();
        assert!(out.solution.is_none(), "100 C / 600 MHz must be infeasible");
        let cert = ps
            .take_minted_certificate()
            .expect("failed phase I at the frontier mints a certificate");

        let mut c = LadderController::new(ctx, 0);
        c.preload_certificates([cert]);
        // A window at the certified design point dies in one matvec — no
        // phase-I run — and the bisection degrades from there.
        let _ = c.frequencies(&obs_at(0, 100.0, 0.6e9), &platform);
        let t = c.telemetry();
        assert!(
            t.screened_probes >= 1,
            "the pooled certificate must reject the certified probe"
        );
        assert!(
            t.infeasible_probes >= 1,
            "screens count as infeasible probes"
        );
    }

    #[test]
    fn failed_probe_certificate_screens_the_next_window() {
        let platform = Platform::niagara8();
        let mut c = LadderController::new(ctx(), 0);
        // The demand is infeasible: its failed phase-I run mints a
        // certificate into the pool...
        let _ = c.frequencies(&obs_at(0, 100.0, 0.6e9), &platform);
        let before = c.telemetry().screened_probes;
        // ...which rejects the same probe in the next window.
        let _ = c.frequencies(&obs_at(1, 100.0, 0.6e9), &platform);
        assert!(
            c.telemetry().screened_probes > before,
            "a failed window must feed the certificate pool"
        );
    }

    #[test]
    fn window_after_an_unserved_one_starts_cold() {
        let platform = Platform::niagara8();
        let fresh = |t: f64| {
            let mut c = LadderController::new(ctx(), 0);
            c.frequencies(&obs_at(0, t, 0.4e9), &platform)
        };
        let mut c = LadderController::new(ctx(), 0);
        // Window 0: feasible, carries its optimum into window 1, whose
        // warm-started solve serves other bits than a cold one.
        let _ = c.frequencies(&obs_at(0, 60.0, 0.4e9), &platform);
        let warm = c.frequencies(&obs_at(1, 61.0, 0.4e9), &platform);
        assert_ne!(warm, fresh(61.0), "a served window warm-starts the next");
        // Window 2: hopelessly hot — every probe is certified infeasible
        // and the window shuts down, dropping the carried point.
        let f = c.frequencies(&obs_at(2, 150.0, 0.4e9), &platform);
        assert_eq!(c.last_rung(), LadderRung::Shutdown);
        assert!(f.iter().all(|&x| x == 0.0));
        // Window 3 must start cold: warm-starting from the point carried
        // across the shutdown would serve other bits, as window 1 shows.
        let cold = c.frequencies(&obs_at(3, 62.0, 0.4e9), &platform);
        assert_eq!(cold, fresh(62.0), "window after a shutdown starts cold");
    }
}
