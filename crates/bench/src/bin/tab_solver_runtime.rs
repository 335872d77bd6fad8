//! **Section 5.1 (design time)** — solver runtime per design point and
//! total Phase-1 time.
//!
//! Paper: "the solver takes less than 2 minutes to determine the optimal
//! solution" per point (2007-era CVX/MATLAB) and "the total time taken to
//! perform phase 1 of the method is few hours". Our from-scratch
//! interior-point solver on the eliminated-state formulation solves each
//! point in tens of milliseconds; the shape to preserve is that Phase 1 is
//! an offline, once-per-platform cost.
//!
//! Beyond the per-point table, this binary measures the Phase-1 sweep four
//! ways on the paper's 8×10 grid — serial cold (the naive baseline), serial
//! warm without certificate screening, serial warm with screening (the
//! default configuration), and parallel warm+screening (all cores, each
//! worker owning its solver scratch and certificate pool) — verifies the
//! screened and parallel tables are identical to the unscreened serial one,
//! and emits a JSON record (`results/tab_solver_runtime.json`) with the
//! `newton_steps` / `phase1_solves` / `certificate_screens` breakdown so
//! future changes have a perf trajectory to compare against.
//!
//! `--quick` runs a reduced 3×4 grid and writes
//! `results/tab_solver_runtime_quick.json` instead (same fields, separate
//! file so CI telemetry checks never pollute the real trajectory).

use std::time::Instant;

use protemp::prelude::*;
use protemp::{solve_assignment, AssignmentContext, BuildStats, LadderController, TableStore};
use protemp_bench::{
    control_config, platform, results_dir, screened_window_latency, serve_bench, write_csv,
    write_text, FIGURE_SEED,
};
use protemp_sim::{
    run_simulation, run_simulation_with_faults, FaultCampaign, FaultClass, FirstIdle,
    IntegralController, SimConfig,
};
use protemp_workload::{BenchmarkProfile, TraceGenerator};

/// The paper's Figure 4 grid: 30–100 °C at 10 °C steps × 100–1000 MHz.
fn paper_grid() -> TableBuilder {
    TableBuilder::new()
        .tstarts((3..=10).map(|i| i as f64 * 10.0).collect())
        .ftargets((1..=10).map(|i| i as f64 * 100.0e6).collect())
}

/// A 2× refinement of the paper grid in both axes (16 temperatures × 20
/// targets), sharing the paper grid's coolest row and every other column —
/// the incremental-rebuild scenario: certificates from the coarse
/// frontier screen the fine frontier, and coinciding cells replay
/// verbatim.
fn fine_grid() -> TableBuilder {
    TableBuilder::new()
        .tstarts((6..=21).map(|i| i as f64 * 5.0).collect())
        .ftargets((1..=20).map(|i| i as f64 * 50.0e6).collect())
}

/// Reduced grid for `--quick` CI telemetry checks: crosses the frontier
/// (so `certificate_screens` is exercised) but stays seconds-cheap.
fn quick_grid() -> TableBuilder {
    TableBuilder::new()
        .tstarts(vec![60.0, 90.0, 100.0])
        .ftargets(vec![0.2e9, 0.4e9, 0.6e9, 0.8e9])
}

/// The checked-in prior for the `--quick` incremental path: a subset of
/// [`quick_grid`] sharing its coolest row and three of its four columns.
fn quick_prior_grid() -> TableBuilder {
    TableBuilder::new()
        .tstarts(vec![60.0, 100.0])
        .ftargets(vec![0.2e9, 0.6e9, 0.8e9])
}

fn stats_json(label: &str, s: &BuildStats) -> String {
    format!(
        "  \"{label}\": {{\"threads\": {}, \"warm_started\": {}, \"solved_points\": {}, \
         \"newton_steps\": {}, \"phase1_solves\": {}, \"certificate_screens\": {}, \
         \"seed_reuses\": {}, \"incremental_screens\": {}, \
         \"rows_pruned\": {}, \"polish_mints\": {}, \"chain_reentries\": {}, \
         \"amortized_column_s\": {:.5}, \
         \"reduce_s\": {:.4}, \"screen_s\": {:.4}, \"family_build_s\": {:.4}, \
         \"rows_full\": {}, \
         \"total_s\": {:.3}, \"mean_point_s\": {:.4}, \"max_point_s\": {:.4}, \
         \"points_per_s\": {:.3}}}",
        s.threads,
        s.warm_started,
        s.solved_points,
        s.newton_steps,
        s.phase1_solves,
        s.certificate_screens,
        s.seed_reuses,
        s.incremental_screens,
        s.rows_pruned,
        s.polish_mints,
        s.chain_reentries,
        s.amortized_column_s,
        s.reduce_s,
        s.screen_s,
        s.family_build_s,
        s.rows_full,
        s.total_s,
        s.mean_point_s,
        s.max_point_s,
        s.points_per_s()
    )
}

/// A context whose solver runs with the row-reduction pass and certificate
/// polish disabled — the "before" side of the pruning ablation.
fn unpruned_context() -> AssignmentContext {
    let mut ctx = AssignmentContext::new(&platform(), &control_config()).expect("ctx");
    let mut opts = *ctx.solver_options();
    opts.row_reduction = false;
    opts.polish_budget = 0;
    ctx.set_solver_options(opts);
    ctx
}

/// Verdict identity + operating-point tolerance between a pruned and an
/// unpruned build of the same grid, via the shared comparator
/// ([`FrequencyTable::agreement_error`]) the verdict-identity test harness
/// also uses — one source of truth for the reduction contract. The
/// tolerances match the harness: 5 % relative objective (the honest bound
/// across two barrier ladders with loose-centered `t_grad`), 1 % average
/// frequency.
fn assert_tables_agree(pruned: &FrequencyTable, full: &FrequencyTable) {
    if let Some(err) = pruned.agreement_error(full, 5e-2, 1e-2) {
        panic!("pruning broke table agreement: {err}");
    }
}

/// Wall-clock honesty of the row reduction: the cold pruned sweep must
/// not be slower than the cold unpruned one by more than 10 %, each side
/// charged its own one-time family build, which `total_s` leaves out and
/// which holds the pruned side's row analysis. (An earlier box-keyed
/// analysis rebuilt per hot cell and made the pruned sweep *slower*, 8.8 s
/// vs 3.5 s, while the Newton counts showed only wins.) Returns the two
/// charged wall times and their ratio.
fn assert_pruning_pays(pruned: &BuildStats, unpruned: &BuildStats) -> (f64, f64, f64) {
    let pruned_s = pruned.total_s + pruned.family_build_s;
    let unpruned_s = unpruned.total_s + unpruned.family_build_s;
    let ratio = pruned_s / unpruned_s.max(1e-9);
    assert!(
        pruned_s <= unpruned_s * 1.10,
        "pruned cold sweep, family build included, must not be slower in \
         wall-clock than unpruned (ratio {ratio:.2} > 1.10)"
    );
    (pruned_s, unpruned_s, ratio)
}

/// One scenario's end-to-end A/B record: Phase-1 build telemetry plus a
/// closed-loop simulation of the integral-control baseline against the
/// convex table controller on the same trace.
struct ScenarioAb {
    name: &'static str,
    grid_rows: usize,
    grid_cols: usize,
    feasible_cells: usize,
    table_build_s: f64,
    mean_point_s: f64,
    max_point_s: f64,
    baseline_violations: f64,
    convex_violations: f64,
    baseline_throughput: f64,
    convex_throughput: f64,
}

impl ScenarioAb {
    fn json(&self) -> String {
        format!(
            "    \"{}\": {{\"rows\": {}, \"cols\": {}, \"feasible_cells\": {}, \
             \"table_build_s\": {:.4}, \"mean_point_s\": {:.5}, \"max_point_s\": {:.5}, \
             \"baseline_violations\": {:.6}, \"convex_violations\": {:.6}, \
             \"baseline_throughput\": {:.4}, \"convex_throughput\": {:.4}}}",
            self.name,
            self.grid_rows,
            self.grid_cols,
            self.feasible_cells,
            self.table_build_s,
            self.mean_point_s,
            self.max_point_s,
            self.baseline_violations,
            self.convex_violations,
            self.baseline_throughput,
            self.convex_throughput,
        )
    }
}

/// Builds a Phase-1 table for one scenario and drives the same mixed trace
/// through the adjustable-gain integral baseline and the convex table
/// controller. Violations count core seconds over `tmax` *plus* capped-node
/// seconds over their own caps (the stacked scenario's memory dies), so the
/// comparison covers every limit the scenario declares.
fn scenario_ab(name: &'static str, platform: &Platform) -> ScenarioAb {
    let cfg = control_config();
    let ctx = AssignmentContext::new(platform, &cfg).expect("scenario ctx");
    // Frequency columns scale with the scenario's clock so heterogeneous
    // platforms (little cores capped below `fmax`) still see usable rows,
    // and reach 90% of `fmax` so the table can track demand instead of
    // clipping throughput at an artificial grid ceiling. Temperature rows
    // cluster near the limit where the controller actually operates.
    let ftargets: Vec<f64> = (1..=6)
        .map(|i| 0.15 * i as f64 * platform.fmax_hz)
        .collect();
    // The 70–85 °C band matters for capped stacks: a row's offsets start
    // every node — capped memory dies included — at the row temperature,
    // so rows above a node cap are infeasible by construction and the
    // controller lives in the rows just below the tightest cap.
    let builder = TableBuilder::new()
        .tstarts(vec![60.0, 70.0, 75.0, 80.0, 85.0, 90.0, 95.0, 100.0])
        .ftargets(ftargets);
    let (table, stats) = builder.build(&ctx).expect("scenario table build");
    assert!(
        table.feasible_count() > 0,
        "{name}: the scenario grid must contain feasible cells"
    );

    // Bursty but sustainable: compute segments saturate demand (the
    // reactive baseline overshoots the limit chasing them), while the
    // light segments leave room to drain the backlog a thermally honest
    // controller accrues — so with work conserved, both controllers can
    // finish the same total work and throughput compares like for like.
    let n = platform.num_cores();
    let light = BenchmarkProfile {
        name: "light".to_string(),
        min_work_us: 1_000,
        max_work_us: 3_000,
        load: 0.15,
        pattern: protemp_workload::ArrivalPattern::Poisson,
    };
    let trace = TraceGenerator::new(FIGURE_SEED + 7).generate_mix(
        &[
            BenchmarkProfile::compute_intensive(),
            light.clone(),
            BenchmarkProfile::web_serving(),
            light,
            BenchmarkProfile::multimedia(),
        ],
        5.0,
        40.0,
        n,
    );
    let sim_cfg = SimConfig {
        t_init_c: 70.0,
        tmax_c: cfg.tmax_c,
        max_duration_s: 40.0,
        ..SimConfig::default()
    };
    let mut baseline = IntegralController::for_limit(cfg.tmax_c);
    let base_report = run_simulation(platform, &trace, &mut baseline, &mut FirstIdle, &sim_cfg)
        .expect("baseline sim");
    let mut convex = ProTempController::new(table.clone());
    let convex_report = run_simulation(platform, &trace, &mut convex, &mut FirstIdle, &sim_cfg)
        .expect("convex sim");

    let ab = ScenarioAb {
        name,
        grid_rows: table.tstarts_c().len(),
        grid_cols: table.ftargets_hz().len(),
        feasible_cells: table.feasible_count(),
        table_build_s: stats.total_s,
        mean_point_s: stats.mean_point_s,
        max_point_s: stats.max_point_s,
        baseline_violations: base_report.violation_fraction + base_report.cap_violation_fraction,
        convex_violations: convex_report.violation_fraction + convex_report.cap_violation_fraction,
        baseline_throughput: base_report.throughput(),
        convex_throughput: convex_report.throughput(),
    };
    println!(
        "scenario {name}: {} feasible cells, table {:.2}s ({:.4}s/pt mean, {:.4}s max); \
         violations integral {:.4}% vs convex {:.4}%; throughput {:.3} vs {:.3} work-s/s \
         (peaks {:.1} / {:.1} C)",
        ab.feasible_cells,
        ab.table_build_s,
        ab.mean_point_s,
        ab.max_point_s,
        ab.baseline_violations * 100.0,
        ab.convex_violations * 100.0,
        ab.baseline_throughput,
        ab.convex_throughput,
        base_report.peak_temp_c,
        convex_report.peak_temp_c,
    );
    ab
}

/// The per-scenario A/B sweep over every built-in platform. The convex
/// controller must meet or beat the integral baseline on violations — the
/// paper's core claim, now asserted on heterogeneous and 3D-stacked
/// scenarios too, with a hair of float slack on the comparison.
fn scenario_sweep() -> String {
    let scenarios: [(&'static str, Platform); 3] = [
        ("niagara8", Platform::niagara8()),
        ("biglittle8", Platform::biglittle8()),
        ("stacked3d", Platform::stacked3d()),
    ];
    let abs: Vec<ScenarioAb> = scenarios
        .iter()
        .map(|(name, p)| scenario_ab(name, p))
        .collect();
    for ab in &abs {
        assert!(
            ab.convex_violations <= ab.baseline_violations + 1e-9,
            "{}: convex controller must meet or beat the integral baseline on violations \
             ({:.6} vs {:.6})",
            ab.name,
            ab.convex_violations,
            ab.baseline_violations
        );
        assert!(
            ab.convex_throughput >= ab.baseline_throughput * 0.999,
            "{}: convex controller must hold equal-or-better throughput \
             ({:.4} vs {:.4} work-s/s)",
            ab.name,
            ab.convex_throughput,
            ab.baseline_throughput
        );
    }
    let body: Vec<String> = abs.iter().map(ScenarioAb::json).collect();
    format!("  \"scenarios\": {{\n{}\n  }}", body.join(",\n"))
}

/// Deadline-bounded degraded-mode section: the ladder controller driven
/// through a seeded fault campaign covering every fault class. The
/// robustness contract is asserted here — zero temperature-cap
/// violations, every tick inside the fixed Newton deadline (the
/// deterministic worst-case-latency bound), and the ladder back at full
/// MPC for the majority of the run — before the numbers are written, so
/// the published telemetry can't drift from what was checked.
fn fault_campaign_section(table: &FrequencyTable) -> String {
    const TICK_BUDGET: usize = 2000;
    let platform = platform();
    let ctx = AssignmentContext::new(&platform, &control_config()).expect("fault ctx");
    let mut policy = LadderController::with_table(ctx, table.clone(), TICK_BUDGET);
    let trace = TraceGenerator::new(FIGURE_SEED + 13).generate(
        &BenchmarkProfile::web_serving(),
        3.0,
        platform.num_cores(),
    );
    let campaign = FaultCampaign::seeded(0xFA17, &FaultClass::ALL, 25, 1);
    let sim_cfg = SimConfig {
        max_duration_s: 4.0,
        ..SimConfig::default()
    };
    let report = run_simulation_with_faults(
        &platform,
        &trace,
        &mut policy,
        &mut FirstIdle,
        &sim_cfg,
        Some(&campaign),
    )
    .expect("fault-campaign sim");
    let telemetry = policy.telemetry();
    let cap_violations = report.violation_fraction + report.cap_violation_fraction;
    assert_eq!(
        cap_violations, 0.0,
        "the fault campaign must complete with zero temperature-cap violations"
    );
    assert_eq!(
        telemetry.budget_overruns, 0,
        "every tick must stay within the {TICK_BUDGET}-step Newton deadline \
         (worst observed {})",
        telemetry.max_tick_newton
    );
    assert!(telemetry.max_tick_newton <= TICK_BUDGET);
    assert!(
        !report.ladder_occupancy.is_empty() && report.ladder_occupancy[0] > 0.5,
        "the ladder must return to full MPC between episodes: {:?}",
        report.ladder_occupancy
    );
    println!(
        "quick fault campaign: {} episodes over {} windows; occupancy {:?}; \
         recovery p99 {:.0} ticks; worst tick {} newton steps (budget {TICK_BUDGET}), \
         {} in all; {} dropped / {} late ticks; cap violations {:.4}%",
        campaign.episodes().len(),
        report.windows,
        report.ladder_occupancy,
        report.fault_recovery_ticks_p99,
        telemetry.max_tick_newton,
        telemetry.newton_steps,
        report.dropped_ticks,
        report.late_ticks,
        cap_violations * 100.0,
    );
    let occupancy: Vec<String> = report
        .ladder_occupancy
        .iter()
        .map(|f| format!("{f:.6}"))
        .collect();
    format!(
        "  \"ladder_occupancy\": [{}],\n  \
         \"fault_recovery_ticks_p99\": {:.1},\n  \
         \"cap_violations_under_faults\": {:.6},\n  \
         \"fault_campaign\": {{\"episodes\": {}, \"windows\": {}, \
         \"tick_budget\": {TICK_BUDGET}, \"max_tick_newton\": {}, \
         \"newton_steps\": {}, \
         \"budget_overruns\": {}, \"truncated_serves\": {}, \
         \"dropped_ticks\": {}, \"late_ticks\": {}}}",
        occupancy.join(", "),
        report.fault_recovery_ticks_p99,
        cap_violations,
        campaign.episodes().len(),
        report.windows,
        telemetry.max_tick_newton,
        telemetry.newton_steps,
        telemetry.budget_overruns,
        telemetry.truncated_serves,
        report.dropped_ticks,
        report.late_ticks,
    )
}

fn quick_run() {
    let ctx = AssignmentContext::new(&platform(), &control_config()).expect("ctx");
    let (table, stats) = quick_grid().build(&ctx).expect("quick build");
    let (plain, plain_stats) = quick_grid()
        .certificate_screening(false)
        .build(&ctx)
        .expect("quick unscreened build");
    assert_eq!(
        table, plain,
        "screening must not change the table (quick grid)"
    );
    println!(
        "quick grid {}x{}: {} newton steps, {} phase-I solves, {} screens \
         (unscreened: {} newton steps)",
        table.tstarts_c().len(),
        table.ftargets_hz().len(),
        stats.newton_steps,
        stats.phase1_solves,
        stats.certificate_screens,
        plain_stats.newton_steps,
    );

    // Incremental-rebuild telemetry against the checked-in prior quick
    // table (regenerated in place if absent — e.g. the first run ever, or
    // after a deliberate format/fingerprint change).
    let store = TableStore::new(results_dir());
    let prior = match store.load("quick_prior") {
        Ok(prior) if prior.fingerprint == ctx.fingerprint() => prior,
        _ => {
            println!("regenerating results/quick_prior.{{table,certs}}");
            let (prior, _) = quick_prior_grid()
                .build_artifact(&ctx)
                .expect("quick prior build");
            store.save("quick_prior", &prior).expect("save quick prior");
            store.load("quick_prior").expect("reload quick prior")
        }
    };
    let (inc_artifact, inc_stats) = quick_grid()
        .build_incremental(&ctx, &prior)
        .expect("quick incremental build");
    assert_eq!(
        inc_artifact.table, table,
        "incremental rebuild must be bit-identical to the cold quick build"
    );
    println!(
        "quick incremental: {} newton steps ({} reused cells, {} inherited screens)",
        inc_stats.newton_steps, inc_stats.seed_reuses, inc_stats.incremental_screens,
    );

    // Pruning ablation on the quick grid: same verdicts, fewer rows in
    // every solve (CI asserts the new telemetry fields off this run).
    let unpruned_ctx = unpruned_context();
    let (unpruned_table, unpruned_stats) = quick_grid()
        .build(&unpruned_ctx)
        .expect("quick unpruned build");
    assert_tables_agree(&table, &unpruned_table);
    assert!(
        stats.rows_pruned > 0,
        "the quick grid's solves must exercise the reduction pass"
    );
    println!(
        "quick pruning ablation: {} newton steps / {} rows pruned (unpruned: {} newton steps)",
        stats.newton_steps, stats.rows_pruned, unpruned_stats.newton_steps,
    );

    // Cold pruned-vs-unpruned wall-clock honesty on the quick grid: the
    // "fewer Newton steps, slower clock" regression class must be
    // impossible to land silently, so the ratio is asserted here too —
    // as a ratio, not absolute seconds, to stay robust on slow CI.
    let (cold_table, cold_stats) = quick_grid()
        .warm_start(false)
        .certificate_screening(false)
        .build(&ctx)
        .expect("quick cold build");
    let (unpruned_cold_table, unpruned_cold_stats) = quick_grid()
        .warm_start(false)
        .certificate_screening(false)
        .build(&unpruned_ctx)
        .expect("quick unpruned cold build");
    assert_tables_agree(&cold_table, &unpruned_cold_table);
    let (pruned_s, unpruned_s, wall_ratio) = assert_pruning_pays(&cold_stats, &unpruned_cold_stats);
    println!(
        "quick cold wall incl. family build: pruned {pruned_s:.2}s vs unpruned {unpruned_s:.2}s \
         (ratio {wall_ratio:.2}, reduce_s {:.3}, family_build_s {:.3} vs {:.3})",
        cold_stats.reduce_s, cold_stats.family_build_s, unpruned_cold_stats.family_build_s,
    );

    // Screened-window latency: the ROADMAP's missing controller number.
    let (screened_s, bisection_s, screened_windows) = screened_window_latency(&ctx);
    println!(
        "quick screened window: {:.1} µs vs bisection {:.1} µs ({screened_windows} screens)",
        screened_s * 1e6,
        bisection_s * 1e6,
    );

    // Serving-tier benchmark: the coarse prior served from a startup
    // scan, hammered by multi-threaded lock-free lookups while the quick
    // grid's incremental refinement republishes mid-flight.
    let serve = serve_bench(&prior, &inc_artifact, 120);
    println!(
        "quick serving tier: {:.2}M lookups/s across {} threads \
         (p50 {:.2} µs, p99 {:.2} µs, refine-while-serving ok: {})",
        serve.lookups_per_s / 1e6,
        serve.threads,
        serve.p50_us,
        serve.p99_us,
        serve.refine_while_serving_ok,
    );
    assert!(
        serve.refine_while_serving_ok,
        "mid-flight republish broke a serving guarantee"
    );

    // Scenario substrate A/B: every built-in platform through the integral
    // baseline and the convex controller (CI asserts off these fields).
    println!("\nScenario A/B (integral baseline vs convex controller):");
    let scenarios_json = scenario_sweep();

    // Degraded-mode fault campaign: the ladder under every fault class
    // (CI asserts zero cap violations and bounded tick latency off this).
    let fault_json = fault_campaign_section(&table);

    let json = format!(
        "{{\n  \"bench\": \"tab_solver_runtime_quick\",\n  \"platform\": \"niagara8\",\n  \
         \"grid_rows\": {},\n  \"grid_cols\": {},\n{},\n{},\n{},\n{},\n{},\n{},\n\
         {scenarios_json},\n{fault_json},\n  \
         \"screened_window_s\": {:.6},\n  \"bisection_window_s\": {:.6},\n  \
         \"screened_windows\": {screened_windows},\n  \
         \"pruning_cold_wall_ratio\": {:.4},\n  \
         \"family_build_s\": {:.4},\n  \
         \"serve_threads\": {},\n  \"serve_lookups\": {},\n  \
         \"serve_lookups_per_s\": {:.1},\n  \
         \"serve_p50_us\": {:.3},\n  \"serve_p99_us\": {:.3},\n  \
         \"refine_while_serving_ok\": {},\n  \
         \"incremental_identical\": true,\n  \"tables_identical\": true,\n  \
         \"pruning_verdicts_identical\": true\n}}\n",
        table.tstarts_c().len(),
        table.ftargets_hz().len(),
        stats_json("screened", &stats),
        stats_json("unscreened", &plain_stats),
        stats_json("incremental", &inc_stats),
        stats_json("unpruned", &unpruned_stats),
        stats_json("cold", &cold_stats),
        stats_json("unpruned_cold", &unpruned_cold_stats),
        screened_s,
        bisection_s,
        wall_ratio,
        stats.family_build_s,
        serve.threads,
        serve.total_lookups,
        serve.lookups_per_s,
        serve.p50_us,
        serve.p99_us,
        serve.refine_while_serving_ok,
    );
    write_text("tab_solver_runtime_quick.json", &json);
}

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        quick_run();
        return;
    }
    let ctx = AssignmentContext::new(&platform(), &control_config()).expect("ctx");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores == 1 {
        println!(
            "NOTE: only one core available — the \"parallel\" sweep below runs \
             on a single worker and its numbers measure the serial path."
        );
    }

    // Per-point timings across the temperature range.
    println!("Section 5.1 — per-point solve time (250-step horizon, gradient constraints on):");
    let mut rows = Vec::new();
    for (t, f) in [
        (40.0, 0.8e9),
        (60.0, 0.6e9),
        (80.0, 0.5e9),
        (90.0, 0.3e9),
        (97.0, 0.1e9),
    ] {
        let t0 = Instant::now();
        let sol = solve_assignment(&ctx, t, f).expect("solve");
        let dt = t0.elapsed().as_secs_f64();
        let status = if sol.is_some() {
            "feasible"
        } else {
            "infeasible"
        };
        println!(
            "  tstart {t:5.1} C, ftarget {:6.0} MHz: {dt:6.2} s ({status})",
            f / 1e6
        );
        rows.push(format!("{t},{:.0},{dt:.3},{status}", f / 1e6));
    }
    write_csv(
        "tab_solver_runtime.csv",
        "tstart_c,ftarget_mhz,solve_s,status",
        &rows,
    );

    // Phase-1 sweep, four ways on the paper's 8×10 grid.
    println!("\nPhase-1 sweep (8 temperatures × 10 targets, Niagara-8):");
    let (cold_table, cold) = paper_grid()
        .threads(1)
        .warm_start(false)
        .certificate_screening(false)
        .build(&ctx)
        .expect("serial cold build");
    println!(
        "  serial cold          : {:6.1} s  ({:5.2} pts/s)",
        cold.total_s,
        cold.points_per_s()
    );
    let (noscreen_table, noscreen) = paper_grid()
        .threads(1)
        .certificate_screening(false)
        .build(&ctx)
        .expect("serial warm unscreened build");
    println!(
        "  serial warm noscreen : {:6.1} s  ({:5.2} pts/s, {} warm-started, {} phase-I)",
        noscreen.total_s,
        noscreen.points_per_s(),
        noscreen.warm_started,
        noscreen.phase1_solves
    );
    let (serial_artifact, serial_warm) = paper_grid()
        .threads(1)
        .build_artifact(&ctx)
        .expect("serial warm build");
    let serial_table = serial_artifact.table.clone();
    println!(
        "  serial warm screened : {:6.1} s  ({:5.2} pts/s, {} screens avoided phase-I)",
        serial_warm.total_s,
        serial_warm.points_per_s(),
        serial_warm.certificate_screens
    );
    let (parallel_table, parallel_warm) = paper_grid().build(&ctx).expect("parallel warm build");
    println!(
        "  parallel warm        : {:6.1} s  ({:5.2} pts/s, {} worker threads)",
        parallel_warm.total_s,
        parallel_warm.points_per_s(),
        parallel_warm.threads
    );

    // The tentpole guarantees: neither the thread count nor certificate
    // screening may change the table.
    assert_eq!(
        serial_table, parallel_table,
        "parallel build must be identical to the serial build"
    );
    assert_eq!(
        serial_table, noscreen_table,
        "certificate screening must not change the table"
    );
    // Warm-vs-cold feasibility at the frontier is a numerical comparison,
    // not a guarantee — different phase-I seeds can reach different
    // early-exit verdicts on razor-thin cells. Report both directions:
    // "rescued" cells the warm chain proved feasible where cold phase I
    // stalled, and (unexpected but possible) "lost" cells the other way.
    let mut rescued = 0usize;
    let mut lost = 0usize;
    for r in 0..serial_table.tstarts_c().len() {
        for c in 0..serial_table.ftargets_hz().len() {
            let cold_ok = cold_table.entry(r, c).is_some();
            let warm_ok = serial_table.entry(r, c).is_some();
            if warm_ok && !cold_ok {
                rescued += 1;
                println!(
                    "  warm chain rescued frontier cell: tstart {} C, ftarget {:.0} MHz",
                    serial_table.tstarts_c()[r],
                    serial_table.ftargets_hz()[c] / 1e6
                );
            }
            if cold_ok && !warm_ok {
                lost += 1;
                println!(
                    "  WARNING: warm sweep missed cold-feasible cell: tstart {} C, ftarget {:.0} MHz",
                    serial_table.tstarts_c()[r],
                    serial_table.ftargets_hz()[c] / 1e6
                );
            }
        }
    }

    let speedup = cold.total_s / parallel_warm.total_s;
    println!(
        "\n  speedup vs serial cold: {speedup:.1}x wall  \
         (screening {:.2}x newton-steps, warm+screen {:.2}x wall, threading {:.2}x)",
        noscreen.newton_steps as f64 / serial_warm.newton_steps.max(1) as f64,
        cold.total_s / serial_warm.total_s,
        serial_warm.total_s / parallel_warm.total_s
    );
    println!(
        "  paper: <2 min/point, hours total — this machine: {:.3} s/point mean",
        parallel_warm.mean_point_s
    );

    // Incremental-rebuild comparison: persist the 8×10 artifact, then
    // refine to the 16×20 grid cold vs. incrementally. The tables must be
    // bit-identical — the incremental path only reuses work where the cold
    // build would repeat the prior's solves exactly, plus verdict-sound
    // certificate screens — while the Newton-step totals show what the
    // persisted certificates and replayed cells saved.
    println!("\nIncremental rebuild: paper 8×10 artifact → 16×20 refinement:");
    let store = TableStore::new(results_dir());
    store
        .save("paper_8x10", &serial_artifact)
        .expect("persist 8x10 artifact");
    let prior = store.load("paper_8x10").expect("reload 8x10 artifact");
    println!(
        "  persisted {} cells + {} certificates to {}",
        prior.cells.len(),
        prior.certificates.len(),
        store.table_path("paper_8x10").display()
    );
    let (fine_cold_art, fine_cold) = fine_grid().build_artifact(&ctx).expect("fine cold build");

    let (fine_inc_art, fine_inc) = fine_grid()
        .build_incremental(&ctx, &prior)
        .expect("fine incremental build");
    assert_eq!(
        fine_cold_art.table, fine_inc_art.table,
        "incremental rebuild must be bit-identical to the cold fine build"
    );
    assert!(
        fine_inc.newton_steps < fine_cold.newton_steps,
        "incremental rebuild must spend fewer Newton steps ({} vs {})",
        fine_inc.newton_steps,
        fine_cold.newton_steps
    );
    println!(
        "  cold 16×20        : {:6.1} s  ({:5.2} pts/s, {} newton steps)",
        fine_cold.total_s,
        fine_cold.points_per_s(),
        fine_cold.newton_steps
    );
    println!(
        "  incremental 16×20 : {:6.1} s  ({:5.2} pts/s, {} newton steps, \
         {} reused cells, {} inherited screens)",
        fine_inc.total_s,
        fine_inc.points_per_s(),
        fine_inc.newton_steps,
        fine_inc.seed_reuses,
        fine_inc.incremental_screens
    );
    println!(
        "  newton-step saving: {:.2}x",
        fine_cold.newton_steps as f64 / fine_inc.newton_steps.max(1) as f64
    );
    store
        .save("paper_16x20", &fine_inc_art)
        .expect("persist 16x20 artifact");

    // Serving-tier benchmark on the paper artifacts: the 8×10 prior
    // served from a startup scan under multi-threaded lock-free lookups,
    // with the 16×20 incremental refinement republished mid-flight.
    let serve = serve_bench(&prior, &fine_inc_art, 400);
    println!(
        "  serving tier      : {:.2}M lookups/s across {} threads \
         (p50 {:.2} µs, p99 {:.2} µs, refine-while-serving ok: {})",
        serve.lookups_per_s / 1e6,
        serve.threads,
        serve.p50_us,
        serve.p99_us,
        serve.refine_while_serving_ok,
    );
    assert!(
        serve.refine_while_serving_ok,
        "mid-flight republish broke a serving guarantee"
    );

    // Pruning + polish ablation: rebuild the paper grid with the solver's
    // row reduction and certificate polish disabled (the pre-reduction
    // solver) and compare Newton totals in both sweep modes. Verdicts must
    // be identical and objectives within tolerance — pruning changes the
    // barrier, never the feasible set — while the cold sweep (every cell a
    // full solve, the uncontaminated per-solve measure) must save at least
    // the headline 15 %.
    println!("\nPruning + polish ablation (paper 8×10 grid):");
    let unpruned_ctx = unpruned_context();
    let (unpruned_cold_table, unpruned_cold) = paper_grid()
        .threads(1)
        .warm_start(false)
        .certificate_screening(false)
        .build(&unpruned_ctx)
        .expect("unpruned cold build");
    let (unpruned_warm_table, unpruned_warm) = paper_grid()
        .threads(1)
        .build(&unpruned_ctx)
        .expect("unpruned warm build");
    assert_tables_agree(&cold_table, &unpruned_cold_table);
    assert_tables_agree(&serial_table, &unpruned_warm_table);
    let cold_saving = 1.0 - cold.newton_steps as f64 / unpruned_cold.newton_steps.max(1) as f64;
    let warm_saving =
        1.0 - serial_warm.newton_steps as f64 / unpruned_warm.newton_steps.max(1) as f64;
    println!(
        "  cold sweep          : {} → {} newton steps ({:.1}% fewer, {} rows pruned/solve avg)",
        unpruned_cold.newton_steps,
        cold.newton_steps,
        cold_saving * 100.0,
        cold.rows_pruned / (cold.solved_points.max(1) as u64),
    );
    println!(
        "  warm+screened sweep : {} → {} newton steps ({:.1}% fewer, {} polish mints)",
        unpruned_warm.newton_steps,
        serial_warm.newton_steps,
        warm_saving * 100.0,
        serial_warm.polish_mints,
    );
    assert!(
        cold_saving >= 0.15,
        "pruning+polish must cut ≥15% of the cold sweep's Newton steps \
         (got {:.1}%)",
        cold_saving * 100.0
    );
    let (pruned_s, unpruned_s, wall_ratio) = assert_pruning_pays(&cold, &unpruned_cold);
    println!(
        "  cold wall-clock     : pruned {pruned_s:.2} s vs unpruned {unpruned_s:.2} s, \
         family builds included (ratio {wall_ratio:.2}; reduce {:.3} s/sweep, \
         family build {:.3} s vs {:.3} s once)",
        cold.reduce_s, cold.family_build_s, unpruned_cold.family_build_s,
    );
    println!(
        "  warm chains         : {} re-entries kept the low-frequency columns' \
         chains alive ({} warm-started)",
        serial_warm.chain_reentries, serial_warm.warm_started,
    );

    let (screened_s, bisection_s, screened_windows) = screened_window_latency(&ctx);
    println!(
        "  screened MPC window : {:.1} µs vs {:.1} µs bisection ({screened_windows} screens)",
        screened_s * 1e6,
        bisection_s * 1e6
    );

    // Scenario substrate A/B on the full run too, so the perf trajectory
    // records the heterogeneous and stacked platforms alongside Niagara.
    println!("\nScenario A/B (integral baseline vs convex controller):");
    let scenarios_json = scenario_sweep();

    let json = format!(
        "{{\n  \"bench\": \"tab_solver_runtime\",\n  \"platform\": \"niagara8\",\n  \
         \"grid_rows\": {},\n  \"grid_cols\": {},\n  \"available_cores\": {cores},\n\
         {scenarios_json},\n\
         {},\n{},\n{},\n{},\n{},\n{},\n{},\n{},\n  \
         \"fine_grid_rows\": {},\n  \"fine_grid_cols\": {},\n  \
         \"incremental_identical\": true,\n  \
         \"pruning_cold_saving\": {:.4},\n  \"pruning_warm_saving\": {:.4},\n  \
         \"pruning_cold_wall_ratio\": {wall_ratio:.4},\n  \
         \"family_build_s\": {:.4},\n  \
         \"pruning_verdicts_identical\": true,\n  \
         \"serve_threads\": {},\n  \"serve_lookups\": {},\n  \
         \"serve_lookups_per_s\": {:.1},\n  \
         \"serve_p50_us\": {:.3},\n  \"serve_p99_us\": {:.3},\n  \
         \"refine_while_serving_ok\": {},\n  \
         \"screened_window_s\": {:.6},\n  \"bisection_window_s\": {:.6},\n  \
         \"speedup_total\": {:.3},\n  \"tables_identical\": true,\n  \
         \"frontier_cells_rescued_by_warm\": {},\n  \
         \"frontier_cells_lost_by_warm\": {}\n}}\n",
        serial_table.tstarts_c().len(),
        serial_table.ftargets_hz().len(),
        stats_json("serial_cold", &cold),
        stats_json("serial_warm_noscreen", &noscreen),
        stats_json("serial_warm", &serial_warm),
        stats_json("parallel_warm", &parallel_warm),
        stats_json("fine_cold", &fine_cold),
        stats_json("fine_incremental", &fine_inc),
        stats_json("unpruned_cold", &unpruned_cold),
        stats_json("unpruned_warm", &unpruned_warm),
        fine_cold_art.table.tstarts_c().len(),
        fine_cold_art.table.ftargets_hz().len(),
        cold_saving,
        warm_saving,
        cold.family_build_s,
        serve.threads,
        serve.total_lookups,
        serve.lookups_per_s,
        serve.p50_us,
        serve.p99_us,
        serve.refine_while_serving_ok,
        screened_s,
        bisection_s,
        speedup,
        rescued,
        lost
    );
    write_text("tab_solver_runtime.json", &json);
}
