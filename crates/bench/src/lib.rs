//! Shared harness for regenerating every table and figure of the Pro-Temp
//! paper.
//!
//! [`figures`] holds one function per figure: it builds the paper's
//! scenario (platform, trace, policies), runs it, prints the rows or
//! series the paper plots, writes them under `results/` and asserts the
//! paper's shape. Each `src/bin/fig*.rs` binary calls one of them;
//! `repro_all` calls all of them over one Phase-1 table and prints a
//! paper-vs-measured summary of the numbers they return.

pub mod figures;

use std::fs;
use std::path::{Path, PathBuf};

use protemp::prelude::*;
use protemp_sim::{run_simulation, AssignmentPolicy, DfsPolicy, SimConfig, SimReport};
use protemp_workload::{BenchmarkProfile, Trace, TraceGenerator};

/// Seed used by every figure so runs are reproducible and comparable.
pub const FIGURE_SEED: u64 = 0xDA7E_2008;

/// Directory where figure CSVs are written.
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// The paper's platform.
pub fn platform() -> Platform {
    Platform::niagara8()
}

/// The paper's controller configuration.
pub fn control_config() -> ControlConfig {
    ControlConfig::default()
}

/// Simulation configuration for figures: warm start, paper time constants.
pub fn sim_config() -> SimConfig {
    SimConfig {
        t_init_c: 70.0,
        max_duration_s: 400.0,
        ..SimConfig::default()
    }
}

/// The mixed benchmark trace (paper Fig. 6(a)): web / multimedia / compute
/// segments rotating every few seconds.
pub fn mixed_trace(duration_s: f64) -> Trace {
    TraceGenerator::new(FIGURE_SEED).generate_mix(
        &[
            BenchmarkProfile::web_serving(),
            BenchmarkProfile::multimedia(),
            BenchmarkProfile::compute_intensive(),
        ],
        5.0,
        duration_s,
        8,
    )
}

/// The compute-intensive trace (paper Fig. 6(b)).
pub fn compute_trace(duration_s: f64) -> Trace {
    TraceGenerator::new(FIGURE_SEED + 1).generate(
        &BenchmarkProfile::compute_intensive(),
        duration_s,
        8,
    )
}

/// The trace for the Figure 11 assignment-policy study.
///
/// Assignment choice only matters when several cores are idle: at moderate
/// load the paper's simple first-idle policy concentrates work (and heat)
/// on the low-numbered cores, while the thermal-aware policy of \[26\]
/// spreads it. Long tasks at ~45 % load with arrival bursts reproduce that
/// regime (the paper attributes the residual Basic-DFS violations to
/// "burstiness in the task arrival pattern").
pub fn bursty_heavy_trace(duration_s: f64) -> Trace {
    let profile = BenchmarkProfile {
        name: "assignment-study".to_string(),
        min_work_us: 8_000,
        max_work_us: 10_000,
        // Low chip-level load with long tasks: under first-idle assignment
        // the work (and heat) concentrates on the lowest-numbered cores,
        // which is exactly the hotspot pattern the thermal-aware policy of
        // [26] eliminates. Higher loads leave no discretionary choices —
        // dispatch becomes completion-driven and the policies converge.
        load: 0.2,
        pattern: protemp_workload::ArrivalPattern::Bursty {
            mean_on_s: 0.8,
            mean_off_s: 0.4,
        },
    };
    TraceGenerator::new(FIGURE_SEED + 2).generate(&profile, duration_s, 8)
}

/// Builds the Phase-1 table with the default grids.
pub fn build_table(cfg: &ControlConfig) -> FrequencyTable {
    let ctx = AssignmentContext::new(&platform(), cfg).expect("context");
    let (table, stats) = TableBuilder::new().build(&ctx).expect("table build");
    eprintln!(
        "[harness] phase-1 table: {} points, {} feasible, {:.1}s total ({:.2}s/point)",
        stats.points, stats.feasible, stats.total_s, stats.mean_point_s
    );
    table
}

/// Steady-state wall-clock of one transiently infeasible MPC window
/// (96 °C, 800 MHz demand), screened vs unscreened: with a pooled frontier
/// certificate the infeasible demand dies in screened matvecs and the
/// window pays only the feasible re-solve at the degraded target; without
/// one it pays a full phase-I run first. Both controllers get one feasible
/// warm-up window so the timing measures the steady state, not first-use
/// scratch and reduction-cache builds. Returns
/// `(screened_s, bisection_s, screened_windows)`.
///
/// # Panics
///
/// Panics if the probe point is unexpectedly feasible or the pooled
/// certificate fails to screen it (either would mean the measurement no
/// longer isolates the screen).
pub fn screened_window_latency(ctx: &AssignmentContext) -> (f64, f64, u64) {
    use protemp::{LadderController, PointSolver};
    use protemp_sim::Observation;
    use std::time::Instant;

    let p = platform();
    let obs = Observation {
        window_index: 0,
        core_temps: vec![96.0; 8],
        max_core_temp: 96.0,
        required_avg_freq_hz: 0.8e9,
        queue_len: 0,
        backlog_work_us: 0.0,
        utilization: vec![0.5; 8],
    };
    let warmup = Observation {
        max_core_temp: 60.0,
        required_avg_freq_hz: 0.3e9,
        core_temps: vec![60.0; 8],
        ..obs.clone()
    };
    // Certificate minted at the window's design point (what a store
    // preload would provide to the screened side).
    let mut ps = PointSolver::new(ctx);
    ps.set_screening(true);
    let probe = ps.solve_point(96.0, 0.8e9, None).expect("probe solve");
    assert!(
        probe.solution.is_none(),
        "96 C / 800 MHz must be infeasible"
    );
    let cert = ps
        .take_minted_certificate()
        .expect("failed phase I mints a certificate");

    // Best-of-N timing: a single one-shot measurement at this scale is one
    // scheduler preemption away from an order-of-magnitude error, and
    // these numbers ship into results/*.json. Each repetition uses a
    // fresh controller (the bisection side pools its own failure's
    // certificate, so a reused one would silently start screening) plus
    // the feasible warm-up window.
    const REPS: usize = 5;
    let mut bisection_s = f64::INFINITY;
    let mut screened_s = f64::INFINITY;
    let mut screens = 0;
    for _ in 0..REPS {
        let mut bisect = LadderController::new(ctx.clone(), 0);
        let _ = bisect.frequencies(&warmup, &p);
        let t0 = Instant::now();
        let _ = bisect.frequencies(&obs, &p);
        bisection_s = bisection_s.min(t0.elapsed().as_secs_f64());

        let mut screened = LadderController::new(ctx.clone(), 0);
        screened.preload_certificates([cert.clone()]);
        let _ = screened.frequencies(&warmup, &p);
        let t0 = Instant::now();
        let _ = screened.frequencies(&obs, &p);
        screened_s = screened_s.min(t0.elapsed().as_secs_f64());
        screens = screened.telemetry().screened_probes;
        assert!(
            screens >= 1,
            "the pooled certificate must actually screen the probe"
        );
    }
    (screened_s, bisection_s, screens)
}

/// One run of the serving-tier benchmark (see [`serve_bench`]).
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Reader threads driven concurrently.
    pub threads: usize,
    /// Lookups answered across all threads.
    pub total_lookups: u64,
    /// Aggregate throughput (sum of per-thread rates), lookups/s.
    pub lookups_per_s: f64,
    /// Median sampled per-lookup latency, µs.
    pub p50_us: f64,
    /// 99th-percentile sampled per-lookup latency, µs.
    pub p99_us: f64,
    /// True iff the mid-flight republish held every serving guarantee:
    /// the publish landed as generation 1, every sampled outcome equals
    /// the pre- or post-publish snapshot's answer (nothing torn), at
    /// least one reader crossed onto the refined snapshot, and the new
    /// snapshot serves both resolutions finest-first.
    pub refine_while_serving_ok: bool,
}

/// Order-statistic of an ascending slice with the harness's ceil rule.
fn quantile_us(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Benchmarks the [`protemp::TableService`] read path end to end: saves
/// `coarse` to a scratch store, opens the service off the startup scan,
/// hammers it with multi-threaded lock-free lookups for `serve_ms`
/// milliseconds, and republishes `refined` mid-flight (the background
/// incremental-refine scenario). Reports aggregate throughput, sampled
/// p50/p99 per-lookup latency, and whether every refine-while-serving
/// guarantee held (each sampled outcome linearizes against the pre- or
/// post-publish snapshot).
///
/// # Panics
///
/// Panics on setup failures (store I/O, mismatched artifact fingerprints,
/// a non-clean startup scan); concurrency-guarantee violations are
/// reported through `refine_while_serving_ok` instead.
pub fn serve_bench(
    coarse: &protemp::BuildArtifact,
    refined: &protemp::BuildArtifact,
    serve_ms: u64,
) -> ServeBenchReport {
    use protemp::{LookupOutcome, TableService, TableStore};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    let fp = coarse.fingerprint;
    assert_eq!(fp, refined.fingerprint, "artifacts must share a context");
    let dir = std::env::temp_dir().join(format!(
        "protemp_serve_bench_{}_{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos()
    ));
    let store = TableStore::new(&dir);
    store.save("coarse", coarse).expect("save coarse artifact");
    let service = Arc::new(TableService::open(&store).expect("open service"));
    assert!(
        service.skipped().is_empty(),
        "startup scan skipped artifacts: {:?}",
        service.skipped()
    );
    let snap_before = service.snapshot();

    // Query mix spanning the refined grid (plus margins beyond it on both
    // axes, so the mix exercises Run, degraded-target, and Shutdown
    // answers) — deterministic, no RNG on the hot path.
    let tstarts = refined.table.tstarts_c();
    let ftargets = refined.table.ftargets_hz();
    let (tlo, thi) = (tstarts[0], tstarts[tstarts.len() - 1]);
    let fhi = ftargets[ftargets.len() - 1];
    let queries: Vec<(f64, f64)> = (0..61)
        .map(|i| {
            let temp = tlo - 3.0 + (i % 16) as f64 * (thi + 6.0 - tlo) / 15.0;
            let freq = (i % 9) as f64 * fhi * 1.1 / 8.0;
            (temp, freq)
        })
        .collect();

    let threads = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .clamp(2, 8);
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::new();
    for t in 0..threads {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let start = Arc::clone(&start);
        let queries = queries.clone();
        handles.push(std::thread::spawn(move || {
            let mut reader = service.reader(fp);
            let mut sampled: Vec<(f64, f64, LookupOutcome)> = Vec::new();
            let mut lat_us: Vec<f64> = Vec::new();
            let mut count = 0u64;
            let mut i = t; // desynchronize the threads' query phases
            start.wait();
            let t0 = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                let (temp, freq) = queries[i % queries.len()];
                i += 1;
                if count.is_multiple_of(64) {
                    // Sampled iteration: individually timed, outcome kept
                    // for the post-hoc linearizability check.
                    let s0 = Instant::now();
                    let out = reader.lookup_ref(temp, freq);
                    let dt = s0.elapsed();
                    let out = out.to_owned();
                    lat_us.push(dt.as_secs_f64() * 1e6);
                    if sampled.len() < 100_000 {
                        sampled.push((temp, freq, out));
                    }
                } else {
                    std::hint::black_box(reader.lookup_ref(temp, freq));
                }
                count += 1;
            }
            let elapsed_s = t0.elapsed().as_secs_f64();
            let generation = reader.snapshot().generation();
            (count, elapsed_s, lat_us, sampled, generation)
        }));
    }

    // Serve for a third of the budget on the coarse snapshot, republish
    // the refined artifact mid-flight, then serve out the rest on it.
    start.wait();
    std::thread::sleep(Duration::from_millis(serve_ms / 3));
    let generation = service
        .publish("refined", refined)
        .expect("publish refined");
    std::thread::sleep(Duration::from_millis(serve_ms - serve_ms / 3));
    stop.store(true, Ordering::Relaxed);

    let snap_after = service.snapshot();
    let mut total_lookups = 0u64;
    let mut lookups_per_s = 0.0;
    let mut latencies: Vec<f64> = Vec::new();
    let mut torn = 0usize;
    let mut saw_new_world = false;
    for h in handles {
        let (count, elapsed_s, lat_us, sampled, last_generation) =
            h.join().expect("reader thread panicked");
        total_lookups += count;
        lookups_per_s += count as f64 / elapsed_s.max(1e-9);
        latencies.extend(lat_us);
        saw_new_world |= last_generation == generation;
        for (temp, freq, out) in sampled {
            let old_ans = snap_before.lookup(fp, temp, freq);
            let new_ans = snap_after.lookup(fp, temp, freq);
            torn += (out != old_ans && out != new_ans) as usize;
        }
    }
    latencies.sort_by(f64::total_cmp);
    let after_tables = snap_after.tables(fp);
    let refine_while_serving_ok = generation == 1
        && torn == 0
        && saw_new_world
        && snap_before.tables(fp).len() == 1
        && after_tables.len() == 2
        && after_tables[0].rows == tstarts.len();
    let _ = fs::remove_dir_all(&dir);
    ServeBenchReport {
        threads,
        total_lookups,
        lookups_per_s,
        p50_us: quantile_us(&latencies, 0.50),
        p99_us: quantile_us(&latencies, 0.99),
        refine_while_serving_ok,
    }
}

/// Runs one policy over a trace with the figure defaults.
pub fn run_policy(
    trace: &Trace,
    policy: &mut dyn DfsPolicy,
    assign: &mut dyn AssignmentPolicy,
    record_trace: bool,
) -> SimReport {
    let cfg = SimConfig {
        record_trace,
        ..sim_config()
    };
    run_simulation(&platform(), trace, policy, assign, &cfg).expect("simulation")
}

/// Writes rows to `results/<name>` with a header line, in one write.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let mut text = format!("{header}\n");
    for r in rows {
        text.push_str(r);
        text.push('\n');
    }
    write_text(name, text);
}

/// Writes a complete text artifact (e.g. a JSON record) to
/// `results/<name>`.
pub fn write_text(name: &str, contents: impl AsRef<[u8]>) {
    let path = results_dir().join(name);
    fs::write(&path, contents).expect("write results file");
    println!("wrote {}", path.display());
}

/// Pretty-prints a band-occupancy report in the paper's Figure 6 layout.
pub fn print_bands(label: &str, report: &SimReport) {
    let f = report.bands_avg.fractions();
    println!(
        "{label:>10}: <80: {:5.1}%   80-90: {:5.1}%   90-100: {:5.1}%   >100: {:5.1}%   (peak {:.1} C)",
        f[0] * 100.0,
        f[1] * 100.0,
        f[2] * 100.0,
        f[3] * 100.0,
        report.peak_temp_c
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic() {
        assert_eq!(mixed_trace(5.0).tasks(), mixed_trace(5.0).tasks());
        assert_eq!(compute_trace(5.0).tasks(), compute_trace(5.0).tasks());
    }

    #[test]
    fn results_dir_exists() {
        assert!(results_dir().is_dir());
    }
}
