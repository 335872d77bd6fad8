//! `mpc_loop`: the run-time MPC ladder in closed loop on Niagara-8.
//!
//! Set-up builds a coarse fallback table, saves it, opens a
//! `TableService` over the store and constructs a `LadderController`
//! reading from it. The loop then runs the paper's Fig. 6(a)
//! web/multimedia/compute mix through `run_simulation`. The solver is
//! used differently from the sweep: warm re-solves of a few Newton steps
//! and bisection probes against live temperatures, in one decision per
//! 100 ms DFS window.

use std::time::Instant;

use protemp::{LadderController, TableBuilder, TableService, TableStore};
use protemp_sim::Platform;
use protemp_workload::{BenchmarkProfile, Trace, TraceGenerator};

use crate::harness::{
    build_and_save, closed_loop, context, evaluate, evaluate_traced, loop_report, thermal_step_ns,
    timed_pass, trace_seed, traced_pass, IterRecord, Outcome, RunConfig, StoreDir,
};
use crate::telemetry::{BuildRecord, LadderCounters};
use crate::tracer::Tracer;

/// The loop's default trace seed: the seed of the paper-figure traces,
/// so the first iteration replays the repository's Fig. 6(a) mix.
pub const DEFAULT_SEED: u64 = 0xDA7E_2008;

/// Newton-step budget per tick: the degraded-mode deadline the fault
/// campaign runs under. Without faults no tick comes near it.
const TICK_BUDGET: usize = 2000;

/// Seconds of arrivals in the mix; the loop runs until the queue drains.
const TRACE_S: f64 = 30.0;

/// Simulated-time cap, far beyond the drain of the 30 s mix.
const MAX_SIM_S: f64 = 400.0;

/// The Fig. 6(a) mix: web, multimedia and compute segments rotating
/// every 5 s, sized for Niagara-8's eight cores.
fn mix(trace_seed: u64) -> Trace {
    TraceGenerator::new(trace_seed).generate_mix(
        &[
            BenchmarkProfile::web_serving(),
            BenchmarkProfile::multimedia(),
            BenchmarkProfile::compute_intensive(),
        ],
        5.0,
        TRACE_S,
        8,
    )
}

/// The coarse fallback table behind the ladder's certified table rung.
fn coarse_grid() -> TableBuilder {
    TableBuilder::new()
        .tstarts(vec![60.0, 80.0, 100.0])
        .ftargets(vec![0.2e9, 0.4e9, 0.6e9, 0.8e9])
        .threads(1)
}

fn iteration(tracer: &Tracer, trace_seed: u64, store: &TableStore) -> IterRecord {
    let trace = tracer.span("workload.trace_gen", || mix(trace_seed));

    let start = Instant::now();
    let platform = tracer.span("sim.platform", Platform::niagara8);
    let (ctx, family_dims) = context(tracer, &platform);
    let (artifact, stats) = build_and_save(tracer, &ctx, &coarse_grid(), store, "mpc_fallback");
    let service = tracer
        .span("serve.open", || TableService::open(store))
        .expect("open the table service");
    let fingerprint = ctx.fingerprint();
    assert!(
        service.skipped().is_empty() && !service.snapshot().tables(fingerprint).is_empty(),
        "the service does not serve the freshly saved table (skipped: {:?})",
        service.skipped()
    );
    let reader = service.reader(fingerprint);
    let ladder = tracer.span("ladder.new", || {
        LadderController::with_service(ctx, reader, TICK_BUDGET)
    });
    let setup_s = start.elapsed().as_secs_f64();

    let (ladder, mut record, phase_s) =
        closed_loop(tracer, &platform, &trace, ladder, MAX_SIM_S, "ladder.tick");
    record.ladder = Some(LadderCounters::read(&ladder.telemetry()));
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
    let dir = StoreDir::create("mpc_loop").expect("create the store directory");
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
            "tick_p50_us",
            "tick_p95_us",
            "degraded_tick_fraction",
            "violation_fraction",
            "work_throughput",
            "wait_p95_s",
        ],
    );

    if cfg.trace {
        let traced = traced_pass(
            iters.len(),
            |t, k| iteration(t, trace_seed(cfg.seed, k), &store),
            |t| vec![("thermal.step_ns", thermal_step_ns(t, &Platform::niagara8()))],
        );
        out.traced = Some(evaluate_traced(&iters, traced, &mut out.problems));
    }
    out
}
