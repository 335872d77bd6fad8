//! **Ablation (extension)** — table-driven Phase 2 (the paper) vs an
//! MPC-style controller that re-solves the convex program at run time for
//! the exact observed temperature.
//!
//! The online policy is the plain MPC controller: `LadderController` with
//! no table and no deadline. It differs from a bare per-window bisection
//! only on a solver error or a non-finite reading, where it backs off to
//! its guard-banded integral rung instead of shutting the window down.
//! The online controller removes the grid-rounding conservatism but pays a
//! solve per DFS window; the paper's table amortizes all solves offline.
//!
//! Beyond the end-to-end simulation, the bench isolates the certificate
//! screen's contribution to a single transiently infeasible MPC window:
//! with a pooled frontier certificate the infeasible demand dies in one
//! matvec and the window pays only the feasible re-solve at the degraded
//! target; without one it pays a full phase-I run first. Both numbers are
//! steady-state (warmed solver scratch and reduction cache).

use std::time::Instant;

use protemp::prelude::*;
use protemp::LadderController;
use protemp_bench::{
    control_config, mixed_trace, platform, run_policy, screened_window_latency, write_csv,
};
use protemp_sim::FirstIdle;

fn main() {
    let cfg = control_config();
    let ctx = AssignmentContext::new(&platform(), &cfg).expect("ctx");
    let trace = mixed_trace(20.0);

    // Table-driven (the paper).
    let (table, stats) = TableBuilder::new()
        .tstarts(vec![55.0, 70.0, 80.0, 85.0, 90.0, 95.0, 100.0])
        .ftargets(vec![0.2e9, 0.4e9, 0.6e9, 0.8e9, 1.0e9])
        .build(&ctx)
        .expect("table");
    let mut table_policy = ProTempController::new(table);
    let t0 = Instant::now();
    let table_report = run_policy(&trace, &mut table_policy, &mut FirstIdle, false);
    let table_wall = t0.elapsed().as_secs_f64();

    // Online MPC-style.
    let mut online_policy = LadderController::new(ctx.clone(), 0);
    let t0 = Instant::now();
    let online_report = run_policy(&trace, &mut online_policy, &mut FirstIdle, false);
    let online_wall = t0.elapsed().as_secs_f64();
    let telemetry = online_policy.telemetry();
    let (solves, infeasible) = (telemetry.ticks, telemetry.infeasible_probes);

    println!("controller | peak C | >100C % | mean wait ms | sim wall s");
    println!(
        "table      | {:6.2} | {:7.3} | {:12.1} | {table_wall:10.1}  (+{:.1}s offline build)",
        table_report.peak_temp_c,
        table_report.violation_fraction * 100.0,
        table_report.waiting.mean_us / 1e3,
        stats.total_s
    );
    println!(
        "online     | {:6.2} | {:7.3} | {:12.1} | {online_wall:10.1}  ({solves} solves, {infeasible} infeasible probes)",
        online_report.peak_temp_c,
        online_report.violation_fraction * 100.0,
        online_report.waiting.mean_us / 1e3
    );

    // The screen's isolated contribution to one infeasible window.
    let (screened_s, bisection_s, _) = screened_window_latency(&ctx);
    println!(
        "screened infeasible window: {:.1} ms (vs {:.1} ms phase-I bisection, {:.2}x)",
        screened_s * 1e3,
        bisection_s * 1e3,
        bisection_s / screened_s.max(1e-9)
    );

    write_csv(
        "ablation_online_vs_table.csv",
        "controller,peak_c,violation_frac,mean_wait_ms,sim_wall_s",
        &[
            format!(
                "table,{:.3},{:.6},{:.3},{table_wall:.3}",
                table_report.peak_temp_c,
                table_report.violation_fraction,
                table_report.waiting.mean_us / 1e3
            ),
            format!(
                "online,{:.3},{:.6},{:.3},{online_wall:.3}",
                online_report.peak_temp_c,
                online_report.violation_fraction,
                online_report.waiting.mean_us / 1e3
            ),
        ],
    );
    write_csv(
        "ablation_screened_window.csv",
        "path,window_s",
        &[
            format!("screened,{screened_s:.6}"),
            format!("bisection,{bisection_s:.6}"),
        ],
    );
    assert_eq!(table_report.violation_fraction, 0.0);
    assert_eq!(online_report.violation_fraction, 0.0);
}
