//! End-to-end integration: Phase 1 (table build) feeding Phase 2 (run-time
//! control) inside the full co-simulator — the complete pipeline of the
//! paper, across every crate of the workspace.

use protemp::prelude::*;
use protemp_sim::{run_simulation, BasicDfs, FirstIdle, NoTc, SimConfig};
use protemp_workload::{BenchmarkProfile, TraceGenerator};

fn small_table(ctx: &AssignmentContext) -> FrequencyTable {
    let (table, stats) = TableBuilder::new()
        .tstarts(vec![60.0, 75.0, 90.0, 100.0])
        .ftargets(vec![0.25e9, 0.5e9, 0.75e9])
        .build(ctx)
        .expect("table build");
    assert_eq!(stats.points, 12);
    assert!(stats.feasible >= 4, "cool rows must be feasible");
    table
}

#[test]
fn protemp_pipeline_runs_and_respects_limit() {
    let platform = Platform::niagara8();
    let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).expect("ctx");
    let table = small_table(&ctx);

    let trace = TraceGenerator::new(42).generate(&BenchmarkProfile::compute_intensive(), 8.0, 8);
    let cfg = SimConfig {
        t_init_c: 70.0,
        max_duration_s: 60.0,
        ..SimConfig::default()
    };
    let mut policy = ProTempController::new(table);
    let report = run_simulation(&platform, &trace, &mut policy, &mut FirstIdle, &cfg).expect("sim");

    assert_eq!(
        report.violation_fraction, 0.0,
        "the Pro-Temp guarantee: no core ever exceeds t_max (peak {:.2})",
        report.peak_temp_c
    );
    assert!(report.peak_temp_c <= 100.0);
    assert!(report.completed > 0, "work must make progress");
    let (lookups, _, shutdowns) = policy.counters();
    assert!(lookups > 0);
    assert_eq!(shutdowns, 0, "a well-built table never needs shutdowns");
}

#[test]
fn baselines_violate_where_protemp_does_not() {
    let platform = Platform::niagara8();
    let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).expect("ctx");
    let table = small_table(&ctx);

    // Long enough for the sink to warm: this is where the reactive scheme
    // starts overshooting.
    let trace = TraceGenerator::new(7).generate(&BenchmarkProfile::compute_intensive(), 30.0, 8);
    let cfg = SimConfig {
        t_init_c: 70.0,
        max_duration_s: 120.0,
        ..SimConfig::default()
    };

    let no_tc = run_simulation(&platform, &trace, &mut NoTc, &mut FirstIdle, &cfg).expect("sim");
    let basic = run_simulation(
        &platform,
        &trace,
        &mut BasicDfs::default(),
        &mut FirstIdle,
        &cfg,
    )
    .expect("sim");
    let mut ctrl = ProTempController::new(table);
    let protemp = run_simulation(&platform, &trace, &mut ctrl, &mut FirstIdle, &cfg).expect("sim");

    assert!(
        no_tc.violation_fraction > 0.2,
        "no-tc must spend substantial time above t_max, got {:.3}",
        no_tc.violation_fraction
    );
    assert!(
        basic.violation_fraction < no_tc.violation_fraction,
        "reactive control reduces violations"
    );
    assert_eq!(protemp.violation_fraction, 0.0, "pro-temp eliminates them");
    // All three finish the same amount of work.
    assert_eq!(no_tc.completed, protemp.completed);
}

#[test]
fn pipeline_is_deterministic() {
    let platform = Platform::niagara8();
    let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).expect("ctx");
    let table = small_table(&ctx);
    let trace = TraceGenerator::new(9).generate(&BenchmarkProfile::multimedia(), 4.0, 8);
    let cfg = SimConfig::default();

    let mut p1 = ProTempController::new(table.clone());
    let r1 = run_simulation(&platform, &trace, &mut p1, &mut FirstIdle, &cfg).expect("sim");
    let mut p2 = ProTempController::new(table);
    let r2 = run_simulation(&platform, &trace, &mut p2, &mut FirstIdle, &cfg).expect("sim");

    assert_eq!(r1.completed, r2.completed);
    assert_eq!(r1.windows, r2.windows);
    assert!((r1.peak_temp_c - r2.peak_temp_c).abs() < 1e-12);
    assert!((r1.core_energy_j - r2.core_energy_j).abs() < 1e-9);
}

#[test]
fn waiting_time_mechanism_visible_in_frequency_residency() {
    // The Figure 7 mechanism: Basic-DFS duty-cycles through shutdowns while
    // Pro-Temp sustains a reduced frequency — visible directly in the
    // frequency-residency metric.
    let platform = Platform::niagara8();
    let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).expect("ctx");
    let table = small_table(&ctx);
    let trace = TraceGenerator::new(21).generate(&BenchmarkProfile::compute_intensive(), 20.0, 8);
    let cfg = SimConfig {
        t_init_c: 70.0,
        max_duration_s: 90.0,
        ..SimConfig::default()
    };

    let basic = run_simulation(
        &platform,
        &trace,
        &mut BasicDfs::default(),
        &mut FirstIdle,
        &cfg,
    )
    .expect("sim");
    let mut ctrl = ProTempController::new(table);
    let protemp = run_simulation(&platform, &trace, &mut ctrl, &mut FirstIdle, &cfg).expect("sim");

    let basic_shutdown = basic.freq_residency.mean_shutdown_fraction();
    let protemp_shutdown = protemp.freq_residency.mean_shutdown_fraction();
    assert!(
        basic_shutdown > 0.1,
        "the reactive baseline must spend real time shut down, got {basic_shutdown:.3}"
    );
    assert!(
        protemp_shutdown < 0.01,
        "pro-temp should never shut cores down, got {protemp_shutdown:.3}"
    );
}

#[test]
fn online_controller_matches_guarantee() {
    // The MPC-style extension — the plain MPC controller, a ladder with no
    // table and no deadline — must preserve the temperature guarantee.
    let platform = Platform::niagara8();
    let ctx = AssignmentContext::new(&platform, &ControlConfig::default()).expect("ctx");
    let trace = TraceGenerator::new(13).generate(&BenchmarkProfile::multimedia(), 3.0, 8);
    let cfg = SimConfig {
        t_init_c: 70.0,
        ..SimConfig::default()
    };
    let mut policy = protemp::LadderController::new(ctx, 0);
    let report = run_simulation(&platform, &trace, &mut policy, &mut FirstIdle, &cfg).expect("sim");
    assert_eq!(report.violation_fraction, 0.0);
    assert!(report.completed > 0);
}
