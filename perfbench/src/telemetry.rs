//! The one place that reads the program's stats structs.
//!
//! `BuildStats`, `LadderTelemetry` and `SimReport` are read here and
//! nowhere else, and only for counters of mechanisms that stay when
//! planned deletions land (no row-pruning, polish, batching or tuple
//! counters). A change to those structs touches this file only.

use protemp::{BuildStats, LadderTelemetry};
use protemp_sim::SimReport;

/// Deterministic counters of one Phase-1 build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuildCounters {
    /// Cells that ran the solver.
    pub solved_points: u64,
    /// Feasible cells.
    pub feasible: u64,
    /// Interior-point Newton steps.
    pub newton_steps: u64,
    /// Phase-I solves.
    pub phase1_solves: u64,
    /// Cells rejected by a pooled certificate instead of phase I.
    pub certificate_screens: u64,
    /// Cells warm-started from their column neighbour.
    pub warm_started: u64,
    /// Worker threads the sweep used.
    pub threads: u64,
}

/// One build's counters plus its slowest cell, which is wall-clock and
/// so is kept out of the equality checks.
#[derive(Debug, Clone, Copy)]
pub struct BuildRecord {
    /// Deterministic counters.
    pub counters: BuildCounters,
    /// Slowest single cell, seconds.
    pub max_cell_s: f64,
}

impl BuildRecord {
    /// Reads the published fields of `s`.
    pub fn read(s: &BuildStats) -> Self {
        BuildRecord {
            counters: BuildCounters {
                solved_points: s.solved_points as u64,
                feasible: s.feasible as u64,
                newton_steps: s.newton_steps,
                phase1_solves: s.phase1_solves,
                certificate_screens: s.certificate_screens,
                warm_started: s.warm_started as u64,
                threads: s.threads as u64,
            },
            max_cell_s: s.max_point_s,
        }
    }
}

/// Deterministic counters of one run of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LadderCounters {
    /// Ticks served.
    pub ticks: u64,
    /// Ticks served per rung (0 = full MPC … 4 = shutdown).
    pub rung_counts: [u64; 5],
    /// Ticks served from a deadline-truncated solve.
    pub truncated_serves: u64,
    /// Bisection probes proven infeasible.
    pub infeasible_probes: u64,
    /// Probes rejected by a pooled certificate in one matvec.
    pub screened_probes: u64,
    /// Solver errors.
    pub solver_errors: u64,
    /// Backoff episodes.
    pub backoffs: u64,
    /// Largest Newton spend of one tick.
    pub max_tick_newton: u64,
}

impl LadderCounters {
    /// Reads the published fields of `t`.
    pub fn read(t: &LadderTelemetry) -> Self {
        LadderCounters {
            ticks: t.ticks,
            rung_counts: t.rung_counts,
            truncated_serves: t.truncated_serves,
            infeasible_probes: t.infeasible_probes,
            screened_probes: t.screened_probes,
            solver_errors: t.solver_errors,
            backoffs: t.backoffs,
            max_tick_newton: t.max_tick_newton as u64,
        }
    }
}

/// The simulated outcome of one closed-loop run. Every field is a
/// deterministic function of the trace and the policy's decisions, so a
/// traced run must reproduce it bit for bit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimOutcome {
    /// Simulated seconds.
    pub duration_s: f64,
    /// DFS windows decided.
    pub windows: u64,
    /// Tasks completed.
    pub completed: u64,
    /// Tasks left unfinished.
    pub unfinished: u64,
    /// Work done, seconds at `f_max`.
    pub work_done_s: f64,
    /// Work-seconds per simulated second (`SimReport::throughput`).
    pub work_throughput: f64,
    /// Core × time share over `tmax` plus capped-node × time share over
    /// the node's own cap.
    pub violation_fraction: f64,
    /// Hottest core temperature, °C.
    pub peak_temp_c: f64,
    /// Core energy, J.
    pub core_energy_j: f64,
    /// 95th-percentile task waiting time, seconds.
    pub wait_p95_s: f64,
    /// Mean waiting time, seconds.
    pub wait_mean_s: f64,
    /// Mean share of time a core was shut down.
    pub shutdown_fraction: f64,
    /// Share of windows per ladder rung (empty without a ladder).
    pub ladder_occupancy: Vec<f64>,
    /// Largest spatial core gradient, °C.
    pub max_gradient_c: f64,
}

impl SimOutcome {
    /// Reads the published fields of `r`.
    pub fn read(r: &SimReport) -> Self {
        SimOutcome {
            duration_s: r.duration_s,
            windows: r.windows,
            completed: r.completed as u64,
            unfinished: r.unfinished as u64,
            work_done_s: r.work_done_s,
            work_throughput: r.throughput(),
            violation_fraction: r.violation_fraction + r.cap_violation_fraction,
            peak_temp_c: r.peak_temp_c,
            core_energy_j: r.core_energy_j,
            wait_p95_s: r.waiting.p95_us * 1e-6,
            wait_mean_s: r.waiting.mean_us * 1e-6,
            shutdown_fraction: r.freq_residency.mean_shutdown_fraction(),
            ladder_occupancy: r.ladder_occupancy.clone(),
            max_gradient_c: r.max_gradient_c,
        }
    }

    /// Windows not served from rung 0: `1 − ladder_occupancy[0]`, or 0
    /// for a policy without a ladder.
    pub fn degraded_fraction(&self) -> f64 {
        self.ladder_occupancy.first().map_or(0.0, |full| 1.0 - full)
    }
}
