use protemp_cvx::Certificate;
use protemp_sim::{DfsPolicy, Observation, Platform};

use crate::ladder::{MpcBisection, MpcOutcome};
use crate::{AssignmentContext, FrequencyTable, LadderTelemetry, LookupOutcome};

/// Phase 2 of Pro-Temp: the run-time controller (paper Section 3.3).
///
/// Implements the simulator's [`DfsPolicy`]: at every DFS period it reads
/// the maximum core temperature and the required average frequency from the
/// [`Observation`] and picks the pre-computed assignment from the Phase-1
/// [`FrequencyTable`]. When the requested point is infeasible at the
/// current temperature it degrades to the next lower feasible frequency
/// column; when even that fails (or the chip is hotter than the hottest
/// modeled row) it shuts the cores down for one window — which the table
/// guarantees never happens in practice, because the assignments themselves
/// keep the chip below `t_max`.
///
/// # Example
///
/// ```no_run
/// use protemp::prelude::*;
/// use protemp_sim::{run_simulation, FirstIdle, SimConfig};
/// use protemp_workload::{BenchmarkProfile, TraceGenerator};
///
/// let platform = Platform::niagara8();
/// let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).unwrap();
/// let (table, _) = TableBuilder::new().build(&ctx).unwrap();
/// let mut policy = ProTempController::new(table);
/// let trace = TraceGenerator::new(1).generate(&BenchmarkProfile::multimedia(), 10.0, 8);
/// let report = run_simulation(&platform, &trace, &mut policy, &mut FirstIdle,
///                             &SimConfig::default()).unwrap();
/// assert!(report.violation_fraction == 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ProTempController {
    table: FrequencyTable,
    lookups: u64,
    degraded: u64,
    shutdowns: u64,
}

impl ProTempController {
    /// Creates the controller from a Phase-1 table.
    pub fn new(table: FrequencyTable) -> Self {
        ProTempController {
            table,
            lookups: 0,
            degraded: 0,
            shutdowns: 0,
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &FrequencyTable {
        &self.table
    }

    /// Lookup counters: `(total, degraded, shutdowns)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.lookups, self.degraded, self.shutdowns)
    }
}

impl DfsPolicy for ProTempController {
    fn name(&self) -> &str {
        "pro-temp"
    }

    fn frequencies(&mut self, obs: &Observation, platform: &Platform) -> Vec<f64> {
        self.lookups += 1;
        match self
            .table
            .lookup(obs.max_core_temp, obs.required_avg_freq_hz)
        {
            LookupOutcome::Run {
                freqs_hz, degraded, ..
            } => {
                if degraded {
                    self.degraded += 1;
                }
                freqs_hz
            }
            LookupOutcome::Shutdown => {
                self.shutdowns += 1;
                vec![0.0; platform.num_cores()]
            }
        }
    }
}

/// An MPC-style extension beyond the paper: solve the convex program *at
/// run time* for the exact observed temperature instead of looking up a
/// pre-computed grid point.
///
/// This trades DFS-decision latency (a solve per window) for sharper
/// assignments; the `online_vs_table` ablation bench quantifies the gap.
/// Every window that is not served a solved assignment — every probe
/// certified infeasible, or a solver error — shuts the cores down,
/// preserving the guarantee.
///
/// Each window runs the same bisection as [`crate::LadderController`]'s
/// MPC rungs, without the fallback rungs: the controller owns one
/// [`protemp_cvx::FamilySolver`] over the context's sweep-shared family
/// for its whole lifetime — the Newton scratch is reused every window —
/// and warm-starts each window's re-solve from the previous window's
/// optimum (consecutive windows see nearly the same temperature and
/// demand, the classic MPC warm start). `warm_solves` counts only windows
/// whose warm start actually carried a solve to an optimum, and the
/// carried point is dropped whenever a window is not served, so the next
/// window never warm-starts from a point solved for a different (possibly
/// repeatedly halved) target.
///
/// The controller also keeps the same certificate pool the Phase-1 sweep
/// uses: certificates minted by its own failed phase-I runs — optionally
/// seeded from a persisted build artifact via
/// [`OnlineController::preload_certificates`] — reject a transiently
/// infeasible MPC window in one matvec, skipping the phase-I run before
/// the bisection falls back to a halved target.
#[derive(Debug, Clone)]
pub struct OnlineController {
    mpc: MpcBisection,
    /// Windows, probe counts and solver errors.
    telemetry: LadderTelemetry,
    warm_solves: u64,
}

impl OnlineController {
    /// Creates the online controller. Window solves run through the
    /// context's sweep-shared [`crate::AssignmentContext::family`]: per
    /// window only the rhs vector is assembled (the observed temperature's
    /// offsets plus the demanded workload bound), and the solver core
    /// allocates nothing — the structure the family hoisted is exactly
    /// what an MPC re-solve shares with its predecessor.
    pub fn new(ctx: AssignmentContext) -> Self {
        let tick_budget = ctx.solver_options().tick_budget;
        OnlineController {
            mpc: MpcBisection::new(ctx, tick_budget),
            telemetry: LadderTelemetry::default(),
            warm_solves: 0,
        }
    }

    /// Seeds the screening pool with certificates from a prior build
    /// (e.g. [`crate::BuildArtifact::certificate_pool`] after
    /// [`crate::BuildArtifact::verify_certificates`]). Screening is sound
    /// regardless — a certificate re-derives its infeasibility bound
    /// against each window's own constraint data and can never reject a
    /// feasible window — but verified certificates save the pool from
    /// carrying dead weight.
    pub fn preload_certificates(&mut self, certs: impl IntoIterator<Item = Certificate>) {
        self.mpc.pool.preload(certs);
    }

    /// Counter pair `(solves, infeasible)`: windows solved and bisection
    /// probes rejected as infeasible (by a solve or a screen).
    pub fn counters(&self) -> (u64, u64) {
        (self.telemetry.ticks, self.telemetry.infeasible_probes)
    }

    /// Number of window solves that reused the previous window's optimum
    /// as a warm start *and* reached an optimum from it.
    pub fn warm_solves(&self) -> u64 {
        self.warm_solves
    }

    /// Number of bisection probes rejected by a pooled infeasibility
    /// certificate (one matvec, no phase-I run).
    pub fn screened_windows(&self) -> u64 {
        self.telemetry.screened_probes
    }

    /// Number of infeasibility certificates currently pooled.
    pub fn certificate_count(&self) -> usize {
        self.mpc.pool.len()
    }
}

impl DfsPolicy for OnlineController {
    fn name(&self) -> &str {
        "pro-temp-online"
    }

    fn frequencies(&mut self, obs: &Observation, platform: &Platform) -> Vec<f64> {
        self.telemetry.ticks += 1;
        let (outcome, _) = self.mpc.run(
            obs.max_core_temp,
            obs.required_avg_freq_hz,
            platform.fmax_hz,
            &mut self.telemetry,
        );
        match outcome {
            MpcOutcome::Served { freqs_hz, warm, .. } => {
                if warm {
                    self.warm_solves += 1;
                }
                freqs_hz
            }
            MpcOutcome::CertifiedShutdown | MpcOutcome::Degrade => vec![0.0; platform.num_cores()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControlConfig, FreqMode, FrequencyAssignment};
    use protemp_sim::Platform;

    fn tiny_table() -> FrequencyTable {
        let asg = |mhz: f64| {
            Some(FrequencyAssignment {
                freqs_hz: vec![mhz * 1e6; 8],
                powers_w: vec![1.0; 8],
                tgrad_c: None,
                objective: 8.0,
            })
        };
        FrequencyTable::new(
            vec![70.0, 100.0],
            vec![0.3e9, 0.8e9],
            vec![asg(300.0), asg(800.0), asg(300.0), None],
            FreqMode::Variable,
        )
    }

    fn obs(max_temp: f64, f_req: f64) -> Observation {
        Observation {
            window_index: 0,
            core_temps: vec![max_temp; 8],
            max_core_temp: max_temp,
            required_avg_freq_hz: f_req,
            queue_len: 0,
            backlog_work_us: 0.0,
            utilization: vec![0.5; 8],
        }
    }

    #[test]
    fn controller_uses_table() {
        let platform = Platform::niagara8();
        let mut c = ProTempController::new(tiny_table());
        let f = c.frequencies(&obs(60.0, 0.7e9), &platform);
        assert!((f[0] - 0.8e9).abs() < 1.0);
        let (lookups, degraded, shutdowns) = c.counters();
        assert_eq!((lookups, degraded, shutdowns), (1, 0, 0));
    }

    #[test]
    fn controller_degrades_when_hot() {
        let platform = Platform::niagara8();
        let mut c = ProTempController::new(tiny_table());
        let f = c.frequencies(&obs(95.0, 0.8e9), &platform);
        assert!((f[0] - 0.3e9).abs() < 1.0);
        assert_eq!(c.counters().1, 1);
    }

    #[test]
    fn controller_shuts_down_beyond_grid() {
        let platform = Platform::niagara8();
        let mut c = ProTempController::new(tiny_table());
        let f = c.frequencies(&obs(105.0, 0.3e9), &platform);
        assert!(f.iter().all(|&x| x == 0.0));
        assert_eq!(c.counters().2, 1);
    }

    #[test]
    fn online_controller_solves_and_respects_demand() {
        let platform = Platform::niagara8();
        let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).unwrap();
        let mut c = OnlineController::new(ctx);
        let f = c.frequencies(&obs(60.0, 0.5e9), &platform);
        let avg = f.iter().sum::<f64>() / f.len() as f64;
        assert!(avg >= 0.5e9 * 0.99, "avg {avg}");
        assert_eq!(c.counters().0, 1);
        assert_eq!(c.warm_solves(), 0, "first window has nothing to reuse");
    }

    #[test]
    fn failed_window_counts_no_warm_solves_and_drops_the_stale_point() {
        let platform = Platform::niagara8();
        let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).unwrap();
        let mut c = OnlineController::new(ctx);
        // Window 1: feasible, establishes a carried optimum.
        let f1 = c.frequencies(&obs(60.0, 0.4e9), &platform);
        assert!(f1.iter().any(|&x| x > 0.0));
        assert_eq!(c.warm_solves(), 0);
        // Window 2: hopelessly hot — every bisection probe is infeasible
        // and the window shuts down. The probes warm-start from window 1's
        // optimum but never reach one, so none of them may count, and the
        // stale point must be dropped.
        let f2 = c.frequencies(&obs(150.0, 0.4e9), &platform);
        assert!(f2.iter().all(|&x| x == 0.0), "150 C must shut down");
        assert_eq!(
            c.warm_solves(),
            0,
            "failed warm attempts must not count as warm solves"
        );
        // Window 3: feasible again — must start cold (the carried point
        // was solved for a halved target under a different temperature).
        let f3 = c.frequencies(&obs(60.0, 0.4e9), &platform);
        assert!(f3.iter().any(|&x| x > 0.0));
        assert_eq!(c.warm_solves(), 0, "window after a shutdown starts cold");
        // Window 4: now the warm chain is re-established.
        let _ = c.frequencies(&obs(61.0, 0.4e9), &platform);
        assert_eq!(c.warm_solves(), 1);
    }

    #[test]
    fn online_controller_screens_with_pooled_certificates() {
        use crate::PointSolver;
        let platform = Platform::niagara8();
        let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).unwrap();
        // Mint a certificate at an infeasible design point (the same kind
        // the table store persists next to a build).
        let mut ps = PointSolver::new(&ctx);
        ps.set_screening(true);
        let out = ps.solve_point(100.0, 0.6e9, None).unwrap();
        assert!(out.solution.is_none(), "100 C / 600 MHz must be infeasible");
        let cert = ps
            .take_minted_certificate()
            .expect("failed phase I at the frontier mints a certificate");

        let mut c = OnlineController::new(ctx);
        c.preload_certificates([cert]);
        assert_eq!(c.certificate_count(), 1);
        // A window at the certified design point dies in one matvec — no
        // phase-I run — and the bisection degrades from there.
        let _ = c.frequencies(&obs(100.0, 0.6e9), &platform);
        assert!(
            c.screened_windows() >= 1,
            "the pooled certificate must reject the certified probe"
        );
        assert!(c.counters().1 >= 1, "screens count as infeasible probes");
    }

    #[test]
    fn online_controller_pools_certificates_from_its_own_failures() {
        let platform = Platform::niagara8();
        let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).unwrap();
        let mut c = OnlineController::new(ctx);
        // An infeasible demand forces at least one failed phase-I run,
        // whose certificate joins the pool for later windows.
        let _ = c.frequencies(&obs(100.0, 0.6e9), &platform);
        assert!(
            c.certificate_count() >= 1,
            "failed windows must feed the certificate pool"
        );
    }

    #[test]
    fn online_controller_warm_starts_consecutive_windows() {
        let platform = Platform::niagara8();
        let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).unwrap();
        let mut c = OnlineController::new(ctx);
        let f1 = c.frequencies(&obs(60.0, 0.5e9), &platform);
        let f2 = c.frequencies(&obs(61.0, 0.5e9), &platform);
        assert_eq!(c.counters().0, 2);
        assert_eq!(
            c.warm_solves(),
            1,
            "second window reuses the first's optimum"
        );
        // Nearly identical windows must produce nearly identical assignments.
        for (a, b) in f1.iter().zip(&f2) {
            assert!((a - b).abs() < 0.05 * platform.fmax_hz, "{a} vs {b}");
        }
    }
}
