//! `table_loop_3d`: the paper's table controller in closed loop on the
//! 3D processor–memory stack.
//!
//! Set-up builds the stack's table, saves it and loads it back through
//! the `TableStore`; the loop then runs `ProTempController` on the four
//! cores over a long bursty-but-sustainable mix. The solver is idle after
//! set-up and the engine's two-layer thermal stepping does nearly all of
//! the wall, so this is the workload that bypasses every solver change
//! and the one where simulator and table-path changes show. It also
//! checks the memory dies' 85 °C caps.

use std::time::Instant;

use protemp::{ProTempController, TableBuilder, TableStore};
use protemp_sim::Platform;
use protemp_workload::{ArrivalPattern, BenchmarkProfile, Trace, TraceGenerator};

use crate::harness::{
    build_and_save, closed_loop, context, evaluate, evaluate_traced, loop_report, thermal_step_ns,
    timed_pass, trace_seed, traced_pass, IterRecord, Outcome, RunConfig, StoreDir,
};
use crate::telemetry::BuildRecord;
use crate::tracer::Tracer;

/// The loop's default trace seed: the seed the repository's per-scenario
/// A/B uses for the same mix.
pub const DEFAULT_SEED: u64 = 0xDA7E_2008 + 7;

/// Simulated seconds per iteration.
const TRACE_S: f64 = 200.0;

/// Bursty but sustainable: compute segments saturate demand while light
/// segments leave room to drain the backlog, so a thermally honest
/// controller finishes the work it is given.
fn mix(trace_seed: u64, cores: usize) -> Trace {
    let light = BenchmarkProfile {
        name: "light".to_string(),
        min_work_us: 1_000,
        max_work_us: 3_000,
        load: 0.15,
        pattern: ArrivalPattern::Poisson,
    };
    TraceGenerator::new(trace_seed).generate_mix(
        &[
            BenchmarkProfile::compute_intensive(),
            light.clone(),
            BenchmarkProfile::web_serving(),
            light,
            BenchmarkProfile::multimedia(),
        ],
        5.0,
        TRACE_S,
        cores,
    )
}

/// Rows cluster below the 85 °C memory cap where the controller operates;
/// columns scale with the clock up to 90% of `f_max`.
fn grid(platform: &Platform) -> TableBuilder {
    TableBuilder::new()
        .tstarts(vec![60.0, 70.0, 75.0, 80.0, 85.0, 90.0, 95.0, 100.0])
        .ftargets(
            (1..=6)
                .map(|i| 0.15 * f64::from(i) * platform.fmax_hz)
                .collect(),
        )
        .threads(1)
}

fn iteration(tracer: &Tracer, trace_seed: u64, store: &TableStore) -> IterRecord {
    let cores = Platform::stacked3d().num_cores();
    let trace = tracer.span("workload.trace_gen", || mix(trace_seed, cores));

    let start = Instant::now();
    let platform = tracer.span("sim.platform", Platform::stacked3d);
    let (ctx, family_dims) = context(tracer, &platform);
    let (artifact, stats) = build_and_save(tracer, &ctx, &grid(&platform), store, "stacked3d");
    let loaded = tracer
        .span("store.load", || store.load("stacked3d"))
        .expect("load the table back");
    assert!(
        loaded.table == artifact.table,
        "the table loaded back differs from the one saved"
    );
    let controller = tracer.span("controller.new", || ProTempController::new(loaded.table));
    let setup_s = start.elapsed().as_secs_f64();

    let (_, record, phase_s) = closed_loop(
        tracer,
        &platform,
        &trace,
        controller,
        TRACE_S,
        "controller.tick",
    );
    IterRecord {
        setup_s,
        phase_s,
        decisions: record.outcome.windows,
        build: BuildRecord::read(&stats),
        table: artifact.table,
        family_dims,
        sim: Some(record),
    }
}

/// Runs the workload; iteration `k` uses trace seed
/// [`trace_seed`]`(cfg.seed, k)`.
pub fn run(cfg: &RunConfig) -> Outcome {
    let dir = StoreDir::create("table_loop_3d").expect("create the store directory");
    let store = TableStore::new(dir.path());
    let off = Tracer::new(false);
    let iters = timed_pass(cfg.seconds, |k| {
        iteration(&off, trace_seed(cfg.seed, k), &store)
    });
    let mut out = evaluate(&iters, 0, Vec::new());
    out.report = loop_report(
        &iters,
        &[
            "ticks",
            "sim_speed",
            "violation_fraction",
            "work_throughput",
            "wait_p95_s",
        ],
    );

    if cfg.trace {
        let traced = traced_pass(
            iters.len(),
            |t, k| iteration(t, trace_seed(cfg.seed, k), &store),
            |t| {
                vec![(
                    "thermal.step_ns",
                    thermal_step_ns(t, &Platform::stacked3d()),
                )]
            },
        );
        out.traced = Some(evaluate_traced(&iters, traced, &mut out.problems));
    }
    out
}
