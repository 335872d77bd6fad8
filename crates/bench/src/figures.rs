//! One function per paper figure, shared by the `fig*` binaries and
//! `repro_all`.
//!
//! Each function prints the figure's rows, writes its file under
//! `results/`, asserts the paper's shape (a failed check panics, so the
//! calling binary exits non-zero) and returns the one number the
//! `repro_all` summary reports. The functions that run Pro-Temp take the
//! Phase-1 table by reference and clone it for each controller.

use protemp::frontier::{max_supported_frequency, max_supported_frequency_at_least, sweep};
use protemp::prelude::*;
use protemp::write_table;
use protemp_sim::{BasicDfs, CoolestFirst, DfsPolicy, FirstIdle, NoTc, SimReport};
use protemp_workload::Trace;

use crate::{
    bursty_heavy_trace, compute_trace, control_config, mixed_trace, platform, print_bands,
    run_policy, write_csv, write_text,
};

/// Starting temperatures of the Fig. 9 and Fig. 10 frontiers, °C.
const FRONTIER_TEMPS_C: [f64; 9] = [27.0, 37.0, 47.0, 57.0, 67.0, 77.0, 87.0, 92.0, 97.0];

/// Bisection tolerance of the Fig. 9 and Fig. 10 frontiers, Hz.
const FRONTIER_TOL_HZ: f64 = 5e6;

/// Writes P1's recorded temperature trajectory as `time_s,p1_temp_c`.
fn write_p1_trace(name: &str, report: &SimReport) {
    let rows: Vec<String> = report
        .trace
        .iter()
        .map(|p| format!("{:.3},{:.3}", p.time_s, p.core_temps[0]))
        .collect();
    write_csv(name, "time_s,p1_temp_c", &rows);
}

/// **Figure 1**: Basic-DFS thermal snapshot of P1 on the
/// compute-intensive trace. Returns Basic-DFS's fraction of core-time
/// above `t_max`.
pub fn fig01() -> f64 {
    let trace = compute_trace(60.0);
    let mut policy = BasicDfs::default(); // 90 C threshold, as in the paper
    let report = run_policy(&trace, &mut policy, &mut FirstIdle, true);
    write_p1_trace("fig01_basic_dfs_trace.csv", &report);

    println!("\nFigure 1 — Basic-DFS thermal snapshot (P1):");
    let above: usize = report
        .trace
        .iter()
        .filter(|p| p.core_temps[0] > 100.0)
        .count();
    println!(
        "  samples above 100 C: {above}/{} ({:.1}%)",
        report.trace.len(),
        100.0 * above as f64 / report.trace.len() as f64
    );
    println!(
        "  peak {:.2} C, violation fraction {:.2}% (all cores)",
        report.peak_temp_c,
        report.violation_fraction * 100.0
    );
    print_bands("basic-dfs", &report);
    println!("\n  P1 temperature, one char per second (. <90, o 90-100, X >100):");
    let per_s: String = report
        .trace
        .iter()
        .step_by(100)
        .map(|p| {
            if p.core_temps[0] > 100.0 {
                'X'
            } else if p.core_temps[0] >= 90.0 {
                'o'
            } else {
                '.'
            }
        })
        .collect();
    println!("  {per_s}");
    assert!(
        report.peak_temp_c > 100.0,
        "paper shape: Basic-DFS must violate the limit on the hot workload"
    );
    report.violation_fraction
}

/// **Figure 2**: Pro-Temp thermal snapshot of P1 on the Figure 1
/// workload. Returns Pro-Temp's fraction of core-time above `t_max`.
pub fn fig02(table: &FrequencyTable) -> f64 {
    let trace = compute_trace(60.0);
    let mut policy = ProTempController::new(table.clone());
    let report = run_policy(&trace, &mut policy, &mut FirstIdle, true);
    write_p1_trace("fig02_protemp_trace.csv", &report);

    println!("\nFigure 2 — Pro-Temp thermal snapshot (P1):");
    println!(
        "  peak {:.2} C, violation fraction {:.4}%",
        report.peak_temp_c,
        report.violation_fraction * 100.0
    );
    let (lookups, degraded, shutdowns) = policy.counters();
    println!("  table lookups {lookups}, degraded {degraded}, shutdowns {shutdowns}");
    print_bands("pro-temp", &report);
    assert_eq!(
        report.violation_fraction, 0.0,
        "paper guarantee: Pro-Temp never exceeds the maximum temperature"
    );
    report.violation_fraction
}

/// **Figure 4**: prints the Phase-1 table in the paper's layout with one
/// example cell, and writes its text form to `results/fig04_table.txt`.
/// Returns the number of feasible grid points.
pub fn fig04(table: &FrequencyTable) -> usize {
    println!(
        "Figure 4 — Phase-1 table structure ({} mode):",
        table.mode()
    );
    println!("{}", table.render());

    // Show one concrete cell like the paper's example row.
    if let Some(row) = table.tstarts_c().iter().position(|&t| t >= 80.0) {
        for (c, &ft) in table.ftargets_hz().iter().enumerate() {
            if let Some(asg) = table.entry(row, c) {
                let mhz: Vec<String> = asg
                    .freqs_hz
                    .iter()
                    .map(|f| format!("{:.0}", f / 1e6))
                    .collect();
                println!(
                    "example cell: tstart<= {:.0} C, ftarget {:.0} MHz -> per-core MHz [{}]",
                    table.tstarts_c()[row],
                    ft / 1e6,
                    mhz.join(", ")
                );
                break;
            }
        }
    }

    let mut text = Vec::new();
    write_table(table, &mut text).expect("serialize table");
    write_text("fig04_table.txt", text);
    let feasible = table.feasible_count();
    println!("{feasible} of {} grid points feasible", table.len());
    feasible
}

/// Runs No-TC, Basic-DFS and Pro-Temp over `trace`, prints each policy's
/// band occupancy, writes the Figure 6 CSV `csv` and returns the three
/// policies' fractions above 100 °C, in that order.
fn band_occupancy(table: &FrequencyTable, trace: &Trace, csv: &str) -> [f64; 3] {
    let policies: [(&str, Box<dyn DfsPolicy>); 3] = [
        ("no-tc", Box::new(NoTc)),
        ("basic-dfs", Box::new(BasicDfs::default())),
        ("pro-temp", Box::new(ProTempController::new(table.clone()))),
    ];
    let mut rows = Vec::new();
    let mut above = [0.0; 3];
    for (i, (name, mut policy)) in policies.into_iter().enumerate() {
        let report = run_policy(trace, policy.as_mut(), &mut FirstIdle, false);
        print_bands(name, &report);
        let f = report.bands_avg.fractions();
        rows.push(format!(
            "{name},{:.6},{:.6},{:.6},{:.6}",
            f[0], f[1], f[2], f[3]
        ));
        above[i] = f[3];
    }
    write_csv(csv, "policy,below80,band80_90,band90_100,above100", &rows);
    above
}

/// **Figure 6(a)**: temperature-band occupancy on the mixed benchmark
/// trace. Returns Basic-DFS's fraction of time above 100 °C.
pub fn fig06a(table: &FrequencyTable) -> f64 {
    let trace = mixed_trace(60.0);
    println!("Figure 6(a) — temperature-band occupancy, mixed benchmarks:");
    let [_, basic, protemp] = band_occupancy(table, &trace, "fig06a_bands_mixed.csv");
    assert_eq!(protemp, 0.0, "paper shape: Pro-Temp never exceeds 100 C");
    basic
}

/// **Figure 6(b)**: temperature-band occupancy on the compute-intensive
/// trace. Returns Basic-DFS's fraction of time above 100 °C.
pub fn fig06b(table: &FrequencyTable) -> f64 {
    let trace = compute_trace(60.0);
    println!("Figure 6(b) — temperature-band occupancy, compute-intensive:");
    let [no_tc, basic, protemp] = band_occupancy(table, &trace, "fig06b_bands_compute.csv");
    assert_eq!(protemp, 0.0, "paper shape: Pro-Temp never exceeds 100 C");
    assert!(
        basic > 0.0 && no_tc > basic,
        "paper shape: No-TC > Basic-DFS > 0 above the limit (got {no_tc:.3} / {basic:.3})"
    );
    basic
}

/// **Figure 7**: Pro-Temp's mean task waiting time on the
/// compute-intensive trace, normalized to Basic-DFS. Returns that ratio.
pub fn fig07(table: &FrequencyTable) -> f64 {
    let trace = compute_trace(60.0);

    let mut basic = BasicDfs::default();
    let basic_report = run_policy(&trace, &mut basic, &mut FirstIdle, false);

    let mut protemp = ProTempController::new(table.clone());
    let protemp_report = run_policy(&trace, &mut protemp, &mut FirstIdle, false);

    let ratio = protemp_report.waiting.mean_us / basic_report.waiting.mean_us;
    println!("Figure 7 — normalized average task waiting time:");
    for (name, r) in [("basic-dfs", &basic_report), ("pro-temp", &protemp_report)] {
        println!(
            "  {name:<9}: mean {:.1} ms (p95 {:.1} ms, {} tasks, makespan {:.1} s)",
            r.waiting.mean_us / 1e3,
            r.waiting.p95_us / 1e3,
            r.waiting.count,
            r.duration_s
        );
    }
    println!("  normalized pro-temp waiting time: {ratio:.3} (paper: ~0.4)");

    write_csv(
        "fig07_waiting_time.csv",
        "policy,mean_wait_ms,p95_wait_ms,normalized",
        &[
            format!(
                "basic-dfs,{:.3},{:.3},1.0",
                basic_report.waiting.mean_us / 1e3,
                basic_report.waiting.p95_us / 1e3
            ),
            format!(
                "pro-temp,{:.3},{:.3},{:.4}",
                protemp_report.waiting.mean_us / 1e3,
                protemp_report.waiting.p95_us / 1e3,
                ratio
            ),
        ],
    );
    assert!(
        ratio < 1.0,
        "paper shape: Pro-Temp must reduce waiting times (got ratio {ratio:.3})"
    );
    ratio
}

/// **Figure 8**: P1 and P2 temperatures under Pro-Temp on the mixed
/// trace. Returns the mean spatial gradient across all cores, °C.
pub fn fig08(table: &FrequencyTable) -> f64 {
    let trace = mixed_trace(60.0);
    let mut policy = ProTempController::new(table.clone());
    let report = run_policy(&trace, &mut policy, &mut FirstIdle, true);

    let rows: Vec<String> = report
        .trace
        .iter()
        .map(|p| {
            format!(
                "{:.3},{:.3},{:.3}",
                p.time_s, p.core_temps[0], p.core_temps[1]
            )
        })
        .collect();
    write_csv(
        "fig08_gradient_trace.csv",
        "time_s,p1_temp_c,p2_temp_c",
        &rows,
    );

    let max_gap = report
        .trace
        .iter()
        .map(|p| (p.core_temps[0] - p.core_temps[1]).abs())
        .fold(0.0_f64, f64::max);
    println!("Figure 8 — P1 vs P2 temperatures under Pro-Temp:");
    println!(
        "  mean spatial gradient across all cores: {:.2} C (max {:.2} C)",
        report.mean_gradient_c, report.max_gradient_c
    );
    println!("  max |P1 - P2| gap over the run: {max_gap:.2} C");
    assert!(
        report.mean_gradient_c < 5.0,
        "paper shape: the gradient across processors stays low"
    );
    report.mean_gradient_c
}

/// **Figure 9**: the maximum average frequency the cores sustain for one
/// DFS window, uniform vs variable assignment, per starting temperature.
/// Returns the smallest variable-minus-uniform gap, MHz.
pub fn fig09() -> f64 {
    let var_cfg = control_config(); // FreqMode::Variable
    let uni_cfg = ControlConfig {
        mode: FreqMode::Uniform,
        ..control_config()
    };
    let var_ctx = AssignmentContext::new(&platform(), &var_cfg).expect("ctx");
    let uni_ctx = AssignmentContext::new(&platform(), &uni_cfg).expect("ctx");

    println!("Figure 9 — max supportable average frequency (MHz) per starting temperature:");
    println!("  tstart |  uniform | variable");
    let mut rows = Vec::new();
    let mut min_gap_hz = f64::INFINITY;
    for t in FRONTIER_TEMPS_C {
        let fu = max_supported_frequency(&uni_ctx, t, FRONTIER_TOL_HZ).expect("uniform frontier");
        // Any uniform-feasible point is variable-feasible, so the variable
        // bisection starts at the uniform frontier.
        let fv = max_supported_frequency_at_least(&var_ctx, t, fu, FRONTIER_TOL_HZ)
            .expect("variable frontier");
        println!("  {t:6.1} | {:8.1} | {:8.1}", fu / 1e6, fv / 1e6);
        rows.push(format!("{t},{:.1},{:.1}", fu / 1e6, fv / 1e6));
        min_gap_hz = min_gap_hz.min(fv - fu);
    }
    write_csv(
        "fig09_uniform_vs_variable.csv",
        "tstart_c,uniform_mhz,variable_mhz",
        &rows,
    );
    assert!(
        min_gap_hz >= -FRONTIER_TOL_HZ,
        "paper shape: variable assignment must dominate uniform everywhere \
         (variable falls {:.1} MHz short)",
        -min_gap_hz / 1e6
    );
    min_gap_hz / 1e6
}

/// **Figure 10**: P1 and P2 frequencies at the variable-assignment
/// frontier, per starting temperature. Returns P1's summed frequency over
/// P2's.
pub fn fig10() -> f64 {
    let ctx = AssignmentContext::new(&platform(), &control_config()).expect("ctx");
    let points = sweep(&ctx, &FRONTIER_TEMPS_C, FRONTIER_TOL_HZ, true).expect("frontier sweep");

    println!("Figure 10 — per-core frequency at the feasibility frontier (MHz):");
    println!("  tstart |      P1 |      P2 | P1-P2");
    let mut rows = Vec::new();
    let mut p1_total = 0.0;
    let mut p2_total = 0.0;
    for p in &points {
        if let Some(a) = &p.assignment {
            let p1 = a.freqs_hz[0] / 1e6;
            let p2 = a.freqs_hz[1] / 1e6;
            println!(
                "  {:6.1} | {p1:7.1} | {p2:7.1} | {:+6.1}",
                p.tstart_c,
                p1 - p2
            );
            rows.push(format!("{},{p1:.1},{p2:.1}", p.tstart_c));
            p1_total += p1;
            p2_total += p2;
        } else {
            println!("  {:6.1} |      -- |      -- |     --", p.tstart_c);
            rows.push(format!("{},,", p.tstart_c));
        }
    }
    write_csv("fig10_per_core_freq.csv", "tstart_c,p1_mhz,p2_mhz", &rows);
    assert!(
        p1_total > p2_total,
        "paper shape: edge core P1 runs faster than middle core P2 overall \
         ({p1_total:.0} vs {p2_total:.0} MHz summed)"
    );
    p1_total / p2_total
}

/// **Figure 11**: the thermal-aware (coolest-first) task assignment of
/// \[26\] against first-idle, for Basic-DFS on the compute-intensive trace
/// and for Pro-Temp on the assignment-study trace. Returns the fraction by
/// which coolest-first lowers Pro-Temp's mean spatial gradient.
pub fn fig11(table: &FrequencyTable) -> f64 {
    // Claim 1: Basic-DFS on the high-workload benchmark.
    let hot = compute_trace(60.0);
    let mut b1 = BasicDfs::default();
    let basic_first = run_policy(&hot, &mut b1, &mut FirstIdle, false);
    let mut b2 = BasicDfs::default();
    let basic_cool = run_policy(&hot, &mut b2, &mut CoolestFirst, false);

    // Claim 2: Pro-Temp spatial gradient on the assignment-study trace
    // (low-load, long tasks — the regime with discretionary choices).
    let study = bursty_heavy_trace(60.0);
    let mut p1 = ProTempController::new(table.clone());
    let protemp_first = run_policy(&study, &mut p1, &mut FirstIdle, false);
    let mut p2 = ProTempController::new(table.clone());
    let protemp_cool = run_policy(&study, &mut p2, &mut CoolestFirst, false);

    println!("Figure 11 — effect of thermal-aware task assignment:");
    println!(
        "  basic-dfs + first-idle    (high load): {:5.2}% time above t_max",
        basic_first.violation_fraction * 100.0
    );
    println!(
        "  basic-dfs + coolest-first (high load): {:5.2}% time above t_max",
        basic_cool.violation_fraction * 100.0
    );
    println!(
        "  pro-temp  + first-idle    (study)    : gradient {:.2} C",
        protemp_first.mean_gradient_c
    );
    println!(
        "  pro-temp  + coolest-first (study)    : gradient {:.2} C",
        protemp_cool.mean_gradient_c
    );
    let gradient_reduction =
        1.0 - protemp_cool.mean_gradient_c / protemp_first.mean_gradient_c.max(1e-9);
    println!(
        "  pro-temp spatial gradient reduction from assignment: {:.1}% (paper: 16%)",
        gradient_reduction * 100.0
    );

    let rows: Vec<String> = [
        ("basic-dfs,first-idle,compute", &basic_first),
        ("basic-dfs,coolest-first,compute", &basic_cool),
        ("pro-temp,first-idle,study", &protemp_first),
        ("pro-temp,coolest-first,study", &protemp_cool),
    ]
    .iter()
    .map(|(run, r)| format!("{run},{:.6},{:.3}", r.violation_fraction, r.mean_gradient_c))
    .collect();
    write_csv(
        "fig11_task_assignment.csv",
        "policy,assignment,workload,above_tmax_frac,mean_gradient_c",
        &rows,
    );

    assert!(
        basic_cool.violation_fraction <= basic_first.violation_fraction + 0.01,
        "paper shape: coolest-first must not worsen Basic-DFS violations \
         ({:.4} vs {:.4})",
        basic_cool.violation_fraction,
        basic_first.violation_fraction
    );
    assert!(
        basic_cool.violation_fraction > 0.0,
        "paper shape: Basic-DFS still violates even with the assignment policy"
    );
    assert_eq!(
        protemp_cool.violation_fraction, 0.0,
        "paper guarantee: Pro-Temp stays below t_max with any assignment"
    );
    assert!(
        gradient_reduction > 0.05,
        "paper shape: the assignment policy visibly reduces Pro-Temp's gradient \
         (got {:.1}%)",
        gradient_reduction * 100.0
    );
    gradient_reduction
}
