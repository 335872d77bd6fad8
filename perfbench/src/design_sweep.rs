//! `design_sweep`: the design-time Phase-1 sweep on Niagara-8.
//!
//! Every iteration builds a fresh `AssignmentContext` at the default
//! `ControlConfig`, builds the paper's 8×10 grid with one worker thread,
//! saves the artifact, and checks the table against the stored full-model
//! feasibility map. The solver does most of the wall and the simulator
//! none, so solver, row-count and warm-start changes show here and
//! simulator changes should not.

use std::time::Instant;

use protemp::{AssignmentContext, ControlConfig, TableBuilder, TableStore};
use protemp_linalg::Matrix;
use protemp_sim::Platform;

use crate::harness::{
    build_and_save, context, evaluate, evaluate_traced, median, timed_pass, traced_pass,
    IterRecord, Outcome, RunConfig, StoreDir,
};
use crate::metrics::ReportLine;
use crate::reference::{self, FeasibilityMap};
use crate::telemetry::BuildRecord;
use crate::tracer::Tracer;

/// The paper's Figure 4 rows: 30–100 °C in 10 °C steps.
pub fn grid_tstarts() -> Vec<f64> {
    (3..=10).map(|i| f64::from(i) * 10.0).collect()
}

/// The paper's Figure 4 columns: 100–1000 MHz in 100 MHz steps.
pub fn grid_ftargets() -> Vec<f64> {
    (1..=10).map(|i| f64::from(i) * 100.0e6).collect()
}

fn builder() -> TableBuilder {
    TableBuilder::new()
        .tstarts(grid_tstarts())
        .ftargets(grid_ftargets())
        .threads(1)
}

fn iteration(tracer: &Tracer, store: &TableStore) -> IterRecord {
    let start = Instant::now();
    let platform = tracer.span("sim.platform", Platform::niagara8);
    let (ctx, family_dims) = context(tracer, &platform);
    let setup_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let (artifact, stats) = build_and_save(tracer, &ctx, &builder(), store, "design_sweep");
    let phase_s = start.elapsed().as_secs_f64();

    IterRecord {
        setup_s,
        phase_s,
        decisions: artifact.table.len() as u64,
        build: BuildRecord::read(&stats),
        table: artifact.table,
        family_dims,
        sim: None,
    }
}

/// `syrk_lower_update` and `matvec_into` timed at the family's
/// `(rows, vars)`. The matrix is dense, so the kernel's span pruning skips
/// nothing and the flop counts below are exact.
fn linalg_kernels(tracer: &Tracer, rows: usize, vars: usize) -> Vec<(&'static str, f64)> {
    const REPS: usize = 41;
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    let a = Matrix::from_fn(rows, vars, |_, _| next());
    let w: Vec<f64> = (0..rows).map(|_| 0.5 + next().abs()).collect();
    let x: Vec<f64> = (0..vars).map(|_| next()).collect();
    let (r, v) = (rows as f64, vars as f64);

    let syrk_s = tracer.span("linalg.syrk_lower_update", || {
        let mut h = Matrix::zeros(vars, vars);
        let times: Vec<f64> = (0..REPS)
            .map(|_| {
                let start = Instant::now();
                h.syrk_lower_update(std::hint::black_box(&a), std::hint::black_box(&w));
                start.elapsed().as_secs_f64()
            })
            .collect();
        std::hint::black_box(&h);
        median(&times)
    });
    // One multiply and one add per lower-triangle entry per row.
    let syrk_flops = r * v * (v + 1.0);
    // Reads A and w once, reads and writes the lower triangle.
    let syrk_bytes = 8.0 * (r * v + r + v * (v + 1.0));

    let matvec_s = tracer.span("linalg.matvec_into", || {
        let mut y = vec![0.0; rows];
        let times: Vec<f64> = (0..REPS * 10)
            .map(|_| {
                let start = Instant::now();
                a.matvec_into(std::hint::black_box(&x), &mut y);
                start.elapsed().as_secs_f64()
            })
            .collect();
        std::hint::black_box(&y);
        median(&times)
    });
    let matvec_flops = 2.0 * r * v;
    let matvec_bytes = 8.0 * (r * v + v + r);

    vec![
        ("linalg.syrk_gflops", syrk_flops / syrk_s * 1e-9),
        ("linalg.syrk_flops", syrk_flops),
        ("linalg.syrk_bytes", syrk_bytes),
        ("linalg.matvec_gflops", matvec_flops / matvec_s * 1e-9),
        ("linalg.matvec_flops", matvec_flops),
        ("linalg.matvec_bytes", matvec_bytes),
    ]
}

/// Runs the workload. The grid is the paper's, so the input does not
/// depend on `cfg.seed`.
pub fn run(cfg: &RunConfig) -> Outcome {
    let dir = StoreDir::create("design_sweep").expect("create the store directory");
    let store = TableStore::new(dir.path());
    let reference = FeasibilityMap::parse(reference::STORED).expect("stored reference parses");
    let off = Tracer::new(false);
    let iters = timed_pass(cfg.seconds, |_| iteration(&off, &store));

    let mut problems = Vec::new();
    let mut lost = 0;
    for it in &iters {
        match reference::check(&reference, &FeasibilityMap::of_table(&it.table)) {
            Ok(n) => lost += n as u64,
            Err(e) => problems.push(e),
        }
    }
    let mut out = evaluate(&iters, lost, problems);
    out.report = vec![
        ReportLine::new(
            "sweep_cells_per_s",
            out.end_to_end.get("decisions_per_s").unwrap_or(0.0),
            "cells/s",
        ),
        ReportLine::new("cells_lost", lost as f64 / iters.len() as f64, "cells"),
        ReportLine::new("sweeps", iters.len() as f64, "count"),
        ReportLine::new(
            "worker_threads",
            iters[0].build.counters.threads as f64,
            "count",
        ),
    ];

    if cfg.trace {
        let (rows, vars) = iters[0].family_dims;
        let traced = traced_pass(
            iters.len(),
            |t, _| iteration(t, &store),
            |t| linalg_kernels(t, rows, vars),
        );
        out.traced = Some(evaluate_traced(&iters, traced, &mut out.problems));
    }
    out
}

/// The full-model feasibility map of the grid, in its stored text form.
pub fn reference_text() -> String {
    let cfg = ControlConfig {
        modal_order: None,
        modal_tol: None,
        ..ControlConfig::default()
    };
    let ctx = AssignmentContext::new(&Platform::niagara8(), &cfg).expect("Niagara-8 context");
    let (table, _) = builder().build(&ctx).expect("paper-grid build");
    FeasibilityMap::of_table(&table).render(
        "design_sweep reference: per-cell feasibility of the paper's 8x10 grid on Niagara-8,\n\
         built with the full thermal model (ControlConfig::default() with modal truncation\n\
         off). F = feasible, . = infeasible. Regenerate with `perfbench --write-reference`.",
    )
}
