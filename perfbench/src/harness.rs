//! What the three workloads share: the set-up and closed-loop steps, the
//! timed and traced passes, the tick-timing policy wrapper, the per-run
//! table store, and the evaluation of one workload's iterations into
//! metrics and checks.

use std::path::{Path, PathBuf};
use std::time::Instant;

use protemp::{
    AssignmentContext, BuildArtifact, BuildStats, ControlConfig, FrequencyTable, TableBuilder,
    TableStore,
};
use protemp_sim::{run_simulation, DfsPolicy, FirstIdle, Observation, Platform, SimConfig};
use protemp_thermal::{DiscreteModel, IntegrationMethod, ThermalSim};
use protemp_workload::Trace;

use crate::metrics::{MetricSet, ReportLine, END_TO_END, PER_LAYER};
use crate::telemetry::{BuildRecord, LadderCounters, SimOutcome};
use crate::tracer::{SpanSummary, Tracer};

/// One benchmark invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds of the untraced pass.
    pub seconds: f64,
    /// Also run the traced pass and report per-layer metrics.
    pub trace: bool,
}

/// The DFS period every workload runs at, seconds (the paper's 100 ms).
pub const DFS_PERIOD_S: f64 = 0.1;

/// Trace seed of loop iteration `k` in a run seeded `seed`: the seed
/// itself for the first iteration, so a run with a loop's default seed
/// replays that loop's reference trace first.
pub fn trace_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Everything one workload iteration measured and produced.
#[derive(Debug, Clone)]
pub struct IterRecord {
    /// Platform to first sweep cell or first tick, seconds.
    pub setup_s: f64,
    /// Wall time of the decision phase, seconds.
    pub phase_s: f64,
    /// Decisions made in the decision phase (cells or windows).
    pub decisions: u64,
    /// The iteration's Phase-1 build.
    pub build: BuildRecord,
    /// The table the build produced.
    pub table: FrequencyTable,
    /// `(rows, vars)` of the iteration's problem family.
    pub family_dims: (usize, usize),
    /// The closed loop, for the loop workloads.
    pub sim: Option<LoopRecord>,
}

/// One closed-loop run.
#[derive(Debug, Clone)]
pub struct LoopRecord {
    /// The simulated outcome.
    pub outcome: SimOutcome,
    /// Wall time of every `DfsPolicy::frequencies` call, seconds.
    pub tick_s: Vec<f64>,
    /// Ticks the policy served below ladder rung 0.
    pub degraded_ticks: u64,
    /// Returned vectors the simulator rejects.
    pub rejected: u64,
    /// The simulator's error, if it stopped the run.
    pub error: Option<String>,
    /// Ladder counters, for the ladder policy.
    pub ladder: Option<LadderCounters>,
}

impl LoopRecord {
    /// The part of the record a traced run must reproduce exactly.
    fn deterministic(&self) -> impl PartialEq + '_ {
        (
            &self.outcome,
            self.tick_s.len(),
            self.degraded_ticks,
            self.rejected,
            &self.error,
            self.ladder,
        )
    }
}

/// The set-up every workload starts with: `platform`'s
/// `AssignmentContext` at the default `ControlConfig` and its problem
/// family, with the family's `(rows, vars)`.
pub fn context(tracer: &Tracer, platform: &Platform) -> (AssignmentContext, (usize, usize)) {
    let ctx = tracer
        .span("assign.context", || {
            AssignmentContext::new(platform, &ControlConfig::default())
        })
        .expect("a built-in platform has a valid context");
    let dims = tracer.span("cvx.family_build", || {
        let family = ctx.family();
        (family.num_lin_rows(), family.num_vars())
    });
    (ctx, dims)
}

/// Builds `grid` on `ctx` and saves the artifact in `store` as `name`.
pub fn build_and_save(
    tracer: &Tracer,
    ctx: &AssignmentContext,
    grid: &TableBuilder,
    store: &TableStore,
    name: &str,
) -> (BuildArtifact, BuildStats) {
    let (artifact, stats) = tracer
        .span("builder.build", || grid.build_artifact(ctx))
        .expect("table build");
    tracer
        .span("store.save", || store.save(name, &artifact))
        .expect("save the artifact");
    (artifact, stats)
}

/// Runs `policy` in closed loop over `trace` from 70 °C for at most
/// `max_duration_s` simulated seconds, timing every tick in spans named
/// `tick_span`. Returns the policy, the loop's record (without ladder
/// counters) and the `run_simulation` wall, seconds.
pub fn closed_loop<P: DfsPolicy>(
    tracer: &Tracer,
    platform: &Platform,
    trace: &Trace,
    policy: P,
    max_duration_s: f64,
    tick_span: &'static str,
) -> (P, LoopRecord, f64) {
    let cfg = SimConfig {
        t_init_c: 70.0,
        tmax_c: ControlConfig::default().tmax_c,
        max_duration_s,
        ..SimConfig::default()
    };
    let mut timed = TimedPolicy::new(policy, tracer, tick_span);
    let start = Instant::now();
    let result = tracer.span("sim.run", || {
        run_simulation(platform, trace, &mut timed, &mut FirstIdle, &cfg)
    });
    let phase_s = start.elapsed().as_secs_f64();
    let (policy, tick_s, degraded_ticks, rejected) = timed.finish();
    let (outcome, error) = match result {
        Ok(report) => (SimOutcome::read(&report), None),
        Err(e) => (SimOutcome::default(), Some(e.to_string())),
    };
    let record = LoopRecord {
        outcome,
        tick_s,
        degraded_ticks,
        rejected,
        error,
        ladder: None,
    };
    (policy, record, phase_s)
}

/// Runs iterations until `seconds` have passed, at least one.
pub fn timed_pass<I>(seconds: f64, mut iteration: impl FnMut(usize) -> I) -> Vec<I> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < seconds {
        out.push(iteration(out.len()));
    }
    out
}

/// A per-run `TableStore` directory inside the working directory,
/// removed when dropped.
#[derive(Debug)]
pub struct StoreDir {
    path: PathBuf,
}

/// Parent of every run's store directory (listed in `.gitignore`).
const STORE_ROOT: &str = ".perfbench";

impl StoreDir {
    /// Creates `.perfbench/<workload>-<pid>`, emptying any leftover.
    pub fn create(workload: &str) -> std::io::Result<Self> {
        let path = Path::new(STORE_ROOT).join(format!("{workload}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(StoreDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is emptied by the next run
        // with the same pid and is ignored by git.
        let _ = std::fs::remove_dir_all(&self.path);
        let _ = std::fs::remove_dir(STORE_ROOT);
    }
}

/// Times every decision of the wrapped policy and checks each returned
/// vector the way the simulator will, forwarding the ladder hooks so the
/// simulator sees the wrapped policy unchanged.
struct TimedPolicy<'t, P> {
    inner: P,
    tracer: &'t Tracer,
    span: &'static str,
    tick_s: Vec<f64>,
    degraded: u64,
    rejected: u64,
}

impl<'t, P: DfsPolicy> TimedPolicy<'t, P> {
    /// Wraps `inner`, recording tick spans named `span`.
    fn new(inner: P, tracer: &'t Tracer, span: &'static str) -> Self {
        TimedPolicy {
            inner,
            tracer,
            span,
            tick_s: Vec::with_capacity(4096),
            degraded: 0,
            rejected: 0,
        }
    }

    /// The wrapped policy, tick times, degraded and rejected tick counts.
    fn finish(self) -> (P, Vec<f64>, u64, u64) {
        (self.inner, self.tick_s, self.degraded, self.rejected)
    }
}

impl<P: DfsPolicy> DfsPolicy for TimedPolicy<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn frequencies(&mut self, obs: &Observation, platform: &Platform) -> Vec<f64> {
        let start = Instant::now();
        let inner = &mut self.inner;
        let freqs = self
            .tracer
            .span(self.span, || inner.frequencies(obs, platform));
        self.tick_s.push(start.elapsed().as_secs_f64());
        if self.inner.ladder_level().is_some_and(|rung| rung != 0) {
            self.degraded += 1;
        }
        if freqs.len() != platform.num_cores() || freqs.iter().any(|f| !f.is_finite() || *f < 0.0) {
            self.rejected += 1;
        }
        freqs
    }

    fn ladder_level(&self) -> Option<u8> {
        self.inner.ladder_level()
    }

    fn inject_solver_timeout(&mut self) {
        self.inner.inject_solver_timeout();
    }
}

/// Median of `v`, the mean of the middle two for an even count (0 for an
/// empty slice).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("peak RSS is read from VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median wall time of one `ThermalSim::step` on `platform`'s RC network
/// at the simulator's 0.4 ms step, nanoseconds.
pub fn thermal_step_ns(tracer: &Tracer, platform: &Platform) -> f64 {
    const BATCH: usize = 10_000;
    const BATCHES: usize = 5;
    tracer.span("thermal.step", || {
        let net = platform.rc_network();
        let model = DiscreteModel::new(&net, 400e-6, IntegrationMethod::ForwardEuler)
            .expect("the simulator's step is stable");
        let powers = vec![1.0; net.num_blocks()];
        let initial = net.uniform_state(70.0);
        let mut sim = ThermalSim::from_parts(net, model, initial);
        let per_step: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..BATCH {
                    sim.step(std::hint::black_box(&powers))
                        .expect("block power vector matches the network");
                }
                start.elapsed().as_secs_f64() * 1e9 / BATCH as f64
            })
            .collect();
        std::hint::black_box(sim.state());
        median(&per_step)
    })
}

/// A workload's evaluated run: checks, counts and metrics.
#[derive(Debug)]
pub struct Outcome {
    /// Failed output checks; the run is correct when empty.
    pub problems: Vec<String>,
    /// Operations attempted (cells or ticks).
    pub attempted: u64,
    /// Operations failed (lost or errored cells, degraded or rejected ticks).
    pub failed: u64,
    /// The workload-specific metrics, printed by name and unit.
    pub report: Vec<ReportLine>,
    /// The gated end-to-end metrics.
    pub end_to_end: MetricSet,
    /// The traced pass, when run.
    pub traced: Option<TracedResult>,
}

/// What the traced pass adds.
#[derive(Debug)]
pub struct TracedResult {
    /// Per-layer metrics.
    pub per_layer: MetricSet,
    /// The spans, for the span table.
    pub spans: SpanSummary,
}

/// The traced replay of an untraced pass.
#[derive(Debug)]
pub struct TracedPass {
    /// The replayed iterations.
    pub iters: Vec<IterRecord>,
    /// Per-layer metrics of the kernel timings run after the iterations.
    pub kernels: Vec<(&'static str, f64)>,
    /// Wall time of the whole traced pass, seconds.
    pub wall_s: f64,
    /// Its spans.
    pub spans: SpanSummary,
}

/// Replays `n` iterations with tracing on, then times the workload's
/// kernels inside the same traced wall.
pub fn traced_pass(
    n: usize,
    mut iteration: impl FnMut(&Tracer, usize) -> IterRecord,
    kernels: impl FnOnce(&Tracer) -> Vec<(&'static str, f64)>,
) -> TracedPass {
    let tracer = Tracer::new(true);
    let start = Instant::now();
    let iters = (0..n).map(|k| iteration(&tracer, k)).collect();
    let kernels = kernels(&tracer);
    let wall_s = start.elapsed().as_secs_f64();
    TracedPass {
        iters,
        kernels,
        wall_s,
        spans: SpanSummary::new(tracer.into_spans()),
    }
}

/// Decisions per second of the decision phase: the median over `iters`,
/// so an iteration slowed by a burst of host contention does not move it.
fn decisions_per_s(iters: &[IterRecord]) -> f64 {
    let rates: Vec<f64> = iters
        .iter()
        .map(|i| ratio(i.decisions as f64, i.phase_s))
        .collect();
    median(&rates)
}

/// Checks and end-to-end metrics of an untraced pass. `lost_cells` counts
/// the cells lost over all iterations (design_sweep's reference check).
pub fn evaluate(iters: &[IterRecord], lost_cells: u64, mut problems: Vec<String>) -> Outcome {
    let first = &iters[0].table;
    if iters.iter().any(|i| &i.table != first) {
        problems.push("the same build produced different tables across iterations".into());
    }
    let mut attempted = 0;
    let mut failed = lost_cells;
    for it in iters {
        match &it.sim {
            None => attempted += it.decisions,
            Some(l) => {
                attempted += l.tick_s.len() as u64;
                failed += l.degraded_ticks + l.rejected;
                if let Some(e) = &l.error {
                    problems.push(format!("the simulator stopped the loop: {e}"));
                }
                if l.outcome.violation_fraction != 0.0 {
                    problems.push(format!(
                        "thermal limit violated: violation_fraction {}",
                        l.outcome.violation_fraction
                    ));
                }
            }
        }
    }
    let mut end_to_end = MetricSet::new(END_TO_END);
    let setups: Vec<f64> = iters.iter().map(|i| i.setup_s).collect();
    end_to_end.set("setup_s", median(&setups));
    end_to_end.set("decisions_per_s", decisions_per_s(iters));
    end_to_end.set("peak_rss_mb", peak_rss_mb());
    Outcome {
        problems,
        attempted: attempted.max(1),
        failed,
        report: Vec::new(),
        end_to_end,
        traced: None,
    }
}

/// The loop metrics named in `keep`, pooled over `iters`, from: `ticks`,
/// `tick_p50_us`, `tick_p95_us`, `degraded_tick_fraction`,
/// `violation_fraction`, `work_throughput`, `wait_p95_s`, `sim_speed`.
pub fn loop_report(iters: &[IterRecord], keep: &[&str]) -> Vec<ReportLine> {
    let loops: Vec<&LoopRecord> = iters.iter().filter_map(|i| i.sim.as_ref()).collect();
    let ticks: Vec<f64> = loops
        .iter()
        .flat_map(|l| l.tick_s.iter().copied())
        .collect();
    let windows: u64 = loops.iter().map(|l| l.outcome.windows).sum();
    let degraded: f64 = loops
        .iter()
        .map(|l| l.outcome.degraded_fraction() * l.outcome.windows as f64)
        .sum();
    let work: f64 = loops.iter().map(|l| l.outcome.work_done_s).sum();
    let simulated: f64 = loops.iter().map(|l| l.outcome.duration_s).sum();
    let waits: Vec<f64> = loops.iter().map(|l| l.outcome.wait_p95_s).collect();
    let worst_violation = loops
        .iter()
        .map(|l| l.outcome.violation_fraction)
        .fold(0.0, f64::max);
    vec![
        ReportLine::new("ticks", ticks.len() as f64, "count"),
        ReportLine::new("tick_p50_us", percentile(&ticks, 0.5) * 1e6, "us"),
        ReportLine::new("tick_p95_us", percentile(&ticks, 0.95) * 1e6, "us"),
        ReportLine::new(
            "degraded_tick_fraction",
            ratio(degraded, windows as f64),
            "fraction",
        ),
        ReportLine::new("violation_fraction", worst_violation, "fraction"),
        ReportLine::new("work_throughput", ratio(work, simulated), "work-s/s"),
        ReportLine::new("wait_p95_s", median(&waits), "s"),
        ReportLine::new(
            "sim_speed",
            ratio(simulated, iters.iter().map(|i| i.phase_s).sum()),
            "sim-s/s",
        ),
    ]
    .into_iter()
    .filter(|l| keep.contains(&l.name.as_str()))
    .collect()
}

/// Compares the traced pass with the untraced one and derives the
/// per-layer metrics from its spans, counters and kernel timings; layers
/// the workload does not exercise read 0.
pub fn evaluate_traced(
    untraced: &[IterRecord],
    traced: TracedPass,
    problems: &mut Vec<String>,
) -> TracedResult {
    for (k, (u, t)) in untraced.iter().zip(&traced.iters).enumerate() {
        let same_loop = match (&u.sim, &t.sim) {
            (Some(a), Some(b)) => a.deterministic() == b.deterministic(),
            (None, None) => true,
            _ => false,
        };
        if u.table != t.table || u.build.counters != t.build.counters || !same_loop {
            problems.push(format!(
                "iteration {k}: the traced run's table or simulated statistics differ \
                 from the untraced run's"
            ));
        }
    }
    let iters = &traced.iters;
    let spans = &traced.spans;
    let n = iters.len() as f64;
    let mut m = MetricSet::new(PER_LAYER);

    m.set("assign.context_s", spans.total_s("assign.context") / n);
    m.set("cvx.family_build_s", spans.total_s("cvx.family_build") / n);
    let (rows, vars) = iters[0].family_dims;
    m.set("cvx.rows", rows as f64);
    m.set("cvx.vars", vars as f64);

    let sum = |f: fn(&IterRecord) -> u64| iters.iter().map(f).sum::<u64>() as f64;
    let newton = sum(|i| i.build.counters.newton_steps);
    let phase1 = sum(|i| i.build.counters.phase1_solves);
    let screens = sum(|i| i.build.counters.certificate_screens);
    let solved = sum(|i| i.build.counters.solved_points);
    let build_s = spans.total_s("builder.build");
    m.set("cvx.newton_steps", newton / n);
    m.set("cvx.phase1_solves", phase1 / n);
    m.set("cvx.s_per_newton", ratio(build_s, newton));
    m.set("cvx.newton_per_cell", ratio(newton, solved));
    m.set("cvx.screen_ratio", ratio(screens, screens + phase1));
    m.set("builder.build_s", build_s / n);
    m.set(
        "builder.warm_ratio",
        ratio(sum(|i| i.build.counters.warm_started), solved),
    );
    m.set(
        "builder.max_cell_s",
        iters.iter().map(|i| i.build.max_cell_s).fold(0.0, f64::max),
    );
    m.set(
        "builder.feasible_cells",
        sum(|i| i.build.counters.feasible) / n,
    );
    m.set("store.save_s", spans.total_s("store.save") / n);
    m.set("store.load_s", spans.total_s("store.load") / n);
    m.set("serve.open_s", spans.total_s("serve.open") / n);
    m.set(
        "workload.trace_gen_s",
        spans.total_s("workload.trace_gen") / n,
    );

    m.set("ladder.tick_total_s", spans.total_s("ladder.tick") / n);
    m.set("ladder.tick_max_us", spans.max_s("ladder.tick") * 1e6);
    m.set(
        "ladder.over_deadline_ticks",
        spans.count_over("ladder.tick", DFS_PERIOD_S) as f64 / n,
    );
    m.set(
        "controller.tick_total_s",
        spans.total_s("controller.tick") / n,
    );
    m.set("sim.engine_s", spans.self_s("sim.run") / n);

    let loops: Vec<&LoopRecord> = iters.iter().filter_map(|i| i.sim.as_ref()).collect();
    if !loops.is_empty() {
        let lsum = |f: fn(&LoopRecord) -> f64| loops.iter().map(|l| f(l)).sum::<f64>();
        m.set("sim.windows", lsum(|l| l.outcome.windows as f64) / n);
        m.set(
            "sim.tasks_completed",
            lsum(|l| l.outcome.completed as f64) / n,
        );
        m.set(
            "sim.shutdown_fraction",
            lsum(|l| l.outcome.shutdown_fraction) / n,
        );
        m.set(
            "sim.work_throughput",
            ratio(
                lsum(|l| l.outcome.work_done_s),
                lsum(|l| l.outcome.duration_s),
            ),
        );
        let waits: Vec<f64> = loops.iter().map(|l| l.outcome.wait_p95_s).collect();
        m.set("sim.wait_p95_s", median(&waits));
        let ladders: Vec<LadderCounters> = loops.iter().filter_map(|l| l.ladder).collect();
        if !ladders.is_empty() {
            let csum = |f: fn(&LadderCounters) -> u64| ladders.iter().map(f).sum::<u64>() as f64;
            let infeasible = csum(|c| c.infeasible_probes);
            let screened = csum(|c| c.screened_probes);
            let ticks = csum(|c| c.ticks);
            m.set("ladder.infeasible_probes", infeasible / n);
            m.set("ladder.screened_probes", screened / n);
            m.set("ladder.screen_ratio", ratio(screened, infeasible));
            m.set(
                "ladder.max_tick_newton",
                ladders.iter().map(|c| c.max_tick_newton).max().unwrap_or(0) as f64,
            );
            for (rung, name) in [
                "ladder.rung_share.0",
                "ladder.rung_share.1",
                "ladder.rung_share.2",
                "ladder.rung_share.3",
                "ladder.rung_share.4",
            ]
            .into_iter()
            .enumerate()
            {
                let served = ladders.iter().map(|c| c.rung_counts[rung]).sum::<u64>() as f64;
                m.set(name, ratio(served, ticks));
            }
            m.set("ladder.solver_errors", csum(|c| c.solver_errors) / n);
            m.set("ladder.truncated_serves", csum(|c| c.truncated_serves) / n);
            m.set("ladder.backoffs", csum(|c| c.backoffs) / n);
        }
    }

    let coverage = ratio(spans.top_level_s(), traced.wall_s);
    if !(0.95..=1.0 + 1e-9).contains(&coverage) {
        problems.push(format!(
            "top-level spans cover {:.1}% of the traced wall, outside 95–100%",
            coverage * 100.0
        ));
    }
    m.set("bench.span_coverage", coverage);
    m.set(
        "bench.trace_overhead",
        ratio(decisions_per_s(untraced), decisions_per_s(iters)) - 1.0,
    );
    m.set("bench.iterations", n);
    m.set("bench.nproc", nproc() as f64);
    m.set(
        "bench.worker_threads",
        iters
            .iter()
            .map(|i| i.build.counters.threads)
            .max()
            .unwrap_or(1) as f64,
    );
    for &(name, value) in &traced.kernels {
        m.set(name, value);
    }
    m.zero_unset();
    TracedResult {
        per_layer: m,
        spans: traced.spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank_percentile() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.95), 95.0);
        assert_eq!(percentile(&hundred, 0.5), 50.0);
    }

    #[test]
    fn first_iteration_uses_the_seed_itself() {
        assert_eq!(trace_seed(42, 0), 42);
        assert_ne!(trace_seed(42, 1), trace_seed(43, 1));
        assert_ne!(trace_seed(42, 1), 42);
    }
}
