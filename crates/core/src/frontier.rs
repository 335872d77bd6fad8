//! Feasibility frontiers: the maximum supportable average frequency as a
//! function of starting temperature (the paper's Figure 9), and the
//! per-core assignments along the frontier (Figure 10).
//!
//! Every bisection probe is a phase-I feasibility question, and the probes
//! of one frontier are strongly related: consecutive probes differ only in
//! the workload bound, and consecutive temperature points only in the
//! thermal offsets. The prober therefore carries two pieces of state
//! between probes — the last feasible point (a seed that lets the next
//! phase I start next to the answer instead of at the origin) and the last
//! infeasibility [`Certificate`](protemp_cvx::Certificate) (which rejects
//! dominated probes with one matvec, no solve). [`FrontierPoint::probes`]
//! records how much work that saved.

use std::sync::Arc;

use protemp_cvx::FamilySolver;
use serde::{Deserialize, Serialize};

use crate::assign::{CertPool, OffsetsCache};
use crate::{solve_assignment, AssignmentContext, FrequencyAssignment, Result};

/// Probe accounting for one frontier point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeStats {
    /// Feasibility probes the bisection issued.
    pub probes: usize,
    /// Probes answered by a pooled infeasibility certificate (no solve).
    pub screened: usize,
    /// Probes answered instantly because the previous feasible point was
    /// still strictly feasible (no Newton steps).
    pub seeded_hits: usize,
    /// Total Newton steps across the probes that did run phase I.
    pub newton_steps: u64,
    /// Linear rows the solver's reduction pass pruned, summed over every
    /// probe that reached the solver (the pass runs before the seed
    /// check, so zero-step seeded accepts count too; only screened probes
    /// skip it).
    pub rows_pruned: u64,
    /// Probes whose infeasibility certificate came out of the bounded
    /// polish continuation (a transferable proof where the duality-gap
    /// verdict alone would have left none).
    pub polish_mints: usize,
}

/// One frontier point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Starting temperature, °C.
    pub tstart_c: f64,
    /// Maximum supportable average frequency, Hz.
    pub max_avg_freq_hz: f64,
    /// The optimizer's assignment at (just below) that frontier.
    pub assignment: Option<FrequencyAssignment>,
    /// What the bisection cost and how much the seed/certificate reuse
    /// saved.
    pub probes: ProbeStats,
}

/// Reusable probe machinery: one sweep-shared [`FamilySolver`] (scratch
/// and family structure persist — a bisection's probes differ only in the
/// workload rhs, and consecutive temperatures only in the offsets, so the
/// family path turns each probe into one rhs fill), the last feasible
/// point as a phase-I seed, and a pool of the infeasibility certificates
/// failed probes minted, as a screen.
struct FrontierProber<'a> {
    ctx: &'a AssignmentContext,
    solver: FamilySolver,
    rhs: Vec<f64>,
    offsets: OffsetsCache,
    seed: Option<Vec<f64>>,
    pool: CertPool,
    stats: ProbeStats,
}

impl<'a> FrontierProber<'a> {
    fn new(ctx: &'a AssignmentContext) -> Self {
        FrontierProber {
            ctx,
            solver: FamilySolver::new(Arc::clone(ctx.family()), *ctx.solver_options()),
            rhs: Vec::new(),
            offsets: OffsetsCache::default(),
            seed: None,
            pool: CertPool::default(),
            stats: ProbeStats::default(),
        }
    }

    /// One feasibility probe at `(tstart_c, ftarget_hz)`.
    fn check(&mut self, tstart_c: f64, ftarget_hz: f64) -> Result<bool> {
        self.stats.probes += 1;
        let off = self.offsets.get(self.ctx, tstart_c);
        self.ctx.point_rhs_into(off, ftarget_hz, &mut self.rhs);
        if self
            .pool
            .screen_view(self.solver.family().view_with(&self.rhs))
        {
            self.stats.screened += 1;
            return Ok(false);
        }
        let had_seed = self.seed.is_some();
        let out = self
            .solver
            .find_feasible_cell(&self.rhs, self.seed.as_deref())?;
        self.stats.newton_steps += out.newton_steps as u64;
        self.stats.rows_pruned += out.rows_pruned as u64;
        if out.polished {
            self.stats.polish_mints += 1;
        }
        match &out.point {
            Some(x) => {
                // Only a zero-cost accept *of the carried seed* counts as a
                // seeded hit; trivially feasible unseeded probes (the f = 0
                // quick end) are free anyway.
                if had_seed && out.newton_steps == 0 {
                    self.stats.seeded_hits += 1;
                }
                self.seed = Some(x.clone());
                Ok(true)
            }
            None => {
                let cert = out.certificate.clone();
                if let Some(cert) = cert {
                    self.pool.remember(cert);
                }
                Ok(false)
            }
        }
    }

    /// Per-point stats snapshot (and reset for the next frontier point).
    fn take_stats(&mut self) -> ProbeStats {
        std::mem::take(&mut self.stats)
    }

    /// Bisection for the maximum supportable frequency from `tstart_c`,
    /// starting from a known-feasible lower bound `lo_hz`.
    fn max_frequency(&mut self, tstart_c: f64, lo_hz: f64, tol_hz: f64) -> Result<f64> {
        let fmax = self.ctx.platform().fmax_hz;
        // Quick ends: full speed feasible, or nothing feasible.
        if self.check(tstart_c, fmax)? {
            return Ok(fmax);
        }
        if lo_hz <= 0.0 && !self.check(tstart_c, 0.0)? {
            return Ok(0.0);
        }
        let mut lo = lo_hz.clamp(0.0, fmax);
        let mut hi = fmax;
        while hi - lo > tol_hz.max(1.0) {
            let mid = 0.5 * (lo + hi);
            if self.check(tstart_c, mid)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }
}

/// Computes the maximum average frequency supportable from `tstart_c`
/// within the window's temperature constraints, by bisection on the
/// workload target (each probe is a phase-I feasibility check, seeded from
/// the previous feasible probe and screened by the previous infeasibility
/// certificate).
///
/// `tol_hz` controls the bisection width (e.g. 5 MHz).
///
/// # Errors
///
/// Propagates solver failures.
pub fn max_supported_frequency(ctx: &AssignmentContext, tstart_c: f64, tol_hz: f64) -> Result<f64> {
    max_supported_frequency_at_least(ctx, tstart_c, 0.0, tol_hz)
}

/// As [`max_supported_frequency`], but starts the bisection from a known
/// feasible lower bound `lo_hz`.
///
/// Used when sweeping the variable-frequency frontier: any uniform-feasible
/// target is automatically variable-feasible (the uniform feasible set is a
/// subset), so seeding with the uniform frontier guarantees the reported
/// variable frontier dominates it even under phase-I tolerance noise.
///
/// # Errors
///
/// Propagates solver failures.
pub fn max_supported_frequency_at_least(
    ctx: &AssignmentContext,
    tstart_c: f64,
    lo_hz: f64,
    tol_hz: f64,
) -> Result<f64> {
    FrontierProber::new(ctx).max_frequency(tstart_c, lo_hz, tol_hz)
}

/// Sweeps the frontier over a temperature grid, optionally solving for the
/// full assignment slightly inside the frontier (used by Figure 10 to show
/// the per-core split).
///
/// One prober is shared across the whole sweep, so the certificate minted
/// at one temperature screens the full-speed probe of every hotter one,
/// and each point's first phase I starts from the previous frontier's
/// feasible point.
///
/// # Errors
///
/// Propagates solver failures.
pub fn sweep(
    ctx: &AssignmentContext,
    tstarts_c: &[f64],
    tol_hz: f64,
    with_assignments: bool,
) -> Result<Vec<FrontierPoint>> {
    let mut prober = FrontierProber::new(ctx);
    let mut out = Vec::with_capacity(tstarts_c.len());
    for &t in tstarts_c {
        let fmax = prober.max_frequency(t, 0.0, tol_hz)?;
        let probes = prober.take_stats();
        let assignment = if with_assignments && fmax > 0.0 {
            // Back off 3% from the frontier so the solve is comfortably
            // strictly feasible even with bisection noise.
            solve_assignment(ctx, t, fmax * 0.97)?
        } else {
            None
        };
        out.push(FrontierPoint {
            tstart_c: t,
            max_avg_freq_hz: fmax,
            assignment,
            probes,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AssignmentContext, ControlConfig, FreqMode};
    use protemp_sim::Platform;

    fn ctx(mode: FreqMode) -> AssignmentContext {
        let cfg = ControlConfig {
            mode,
            ..ControlConfig::default()
        };
        AssignmentContext::new(&Platform::niagara8(), &cfg).unwrap()
    }

    #[test]
    fn frontier_decreases_with_temperature() {
        let ctx = ctx(FreqMode::Variable);
        let cool = max_supported_frequency(&ctx, 50.0, 20e6).unwrap();
        let warm = max_supported_frequency(&ctx, 85.0, 20e6).unwrap();
        let hot = max_supported_frequency(&ctx, 93.0, 20e6).unwrap();
        assert!(cool >= warm && warm >= hot, "{cool} >= {warm} >= {hot}");
        assert!(hot > 0.0, "some frequency supportable at 93 C");
        assert!(warm < 1.0e9, "85 C start cannot run full speed");
    }

    #[test]
    fn variable_dominates_uniform() {
        // The paper's Figure 9: a non-uniform assignment supports a higher
        // average workload than the uniform one at the same temperature.
        let var = ctx(FreqMode::Variable);
        let uni = ctx(FreqMode::Uniform);
        for t in [80.0, 92.0] {
            let fv = max_supported_frequency(&var, t, 10e6).unwrap();
            let fu = max_supported_frequency(&uni, t, 10e6).unwrap();
            assert!(
                fv >= fu - 10e6,
                "variable ({fv:.3e}) must dominate uniform ({fu:.3e}) at {t} C"
            );
        }
    }

    #[test]
    fn sweep_attaches_assignments_and_probe_stats() {
        let ctx = ctx(FreqMode::Variable);
        let pts = sweep(&ctx, &[70.0, 90.0], 20e6, true).unwrap();
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!(p.probes.probes > 0, "bisection must record its probes");
            assert!(
                p.probes.screened + p.probes.seeded_hits <= p.probes.probes,
                "savings cannot exceed the probe count"
            );
            assert!(
                p.probes.rows_pruned > 0,
                "default-model probes must exercise the reduction pass"
            );
            assert!(
                p.probes.polish_mints <= p.probes.probes,
                "polish mints cannot exceed the probe count"
            );
            if p.max_avg_freq_hz > 0.0 {
                let a = p.assignment.as_ref().expect("assignment");
                assert!(a.avg_freq_hz() > 0.0);
            }
        }
    }

    #[test]
    fn shared_prober_matches_fresh_probers() {
        // Certificate screening is verdict-preserving by construction, but
        // phase-I verdicts on razor-thin probes can depend on the start
        // point (the bench tracks rescued/lost cells for exactly this), so
        // the carried seed may shift individual bisection brackets. Require
        // agreement within a few bisection widths, not exact equality.
        let ctx = ctx(FreqMode::Variable);
        let pts = sweep(&ctx, &[60.0, 88.0], 20e6, false).unwrap();
        for p in &pts {
            let fresh = max_supported_frequency(&ctx, p.tstart_c, 20e6).unwrap();
            assert!(
                (p.max_avg_freq_hz - fresh).abs() <= 60e6,
                "swept {} vs fresh {} at {} C",
                p.max_avg_freq_hz,
                fresh,
                p.tstart_c
            );
        }
    }
}
