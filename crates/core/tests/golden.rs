//! Golden-output tests: the Phase-1 sweep and the per-window MPC
//! controllers must keep reproducing outputs pinned from a known-good
//! build, bit for bit.
//!
//! * the checked-in `results/quick_prior` artifact rebuilds identically
//!   (table, per-cell records, certificates, fingerprint);
//! * the Phase-1 sweeps of the paper 8×10 grid, the `--quick` 3×4 grid
//!   and the quick grid's incremental rebuild against `results/quick_prior`
//!   keep their table, record and certificate digests and their
//!   deterministic build counters, and the paper grid's values alone
//!   (everything but the per-cell Newton counts) on every built-in
//!   platform;
//! * the default contexts of the three built-in platforms keep their
//!   fingerprints, so persisted artifacts stay valid;
//! * `LadderController` keeps its frequency bits, rungs and counters over
//!   a fixed window sequence that crosses certified-infeasible, screened
//!   and warm-chained windows, with and without a tick budget; with no
//!   budget its frequency bits alone match the plain MPC controller's
//!   pinned digest;
//! * closed-loop `run_simulation` reports with a recorded trajectory stay
//!   bit-identical for the table controller on `stacked3d`, the integral
//!   baseline on `biglittle8` and the MPC ladder on `niagara8`;
//! * the one-shot surfaces `solve_assignment`, `check_feasible` and
//!   `frontier::sweep` return bit-identical results and error variants on
//!   every built-in platform and on the uniform-frequency (equality) path;
//! * the row-reduction analysis of every built-in platform's family, at
//!   gradient strides 5 and 1, keeps exactly the pinned rows across a
//!   30–100 °C × five-target grid.

use std::path::PathBuf;

use protemp::{
    check_feasible, frontier, solve_assignment, AssignmentContext, BuildArtifact, BuildStats,
    ControlConfig, FreqMode, LadderController, LadderTelemetry, ProTempController, TableBuilder,
    TableStore,
};
use protemp_sim::{
    run_simulation, DfsPolicy, FirstIdle, IntegralController, Observation, Platform, SimConfig,
    SimReport,
};
use protemp_workload::{ArrivalPattern, BenchmarkProfile, Trace, TraceGenerator};

fn repo_results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results")
}

fn default_ctx(platform: &Platform) -> AssignmentContext {
    AssignmentContext::new(platform, &ControlConfig::default()).unwrap()
}

#[test]
fn quick_prior_rebuilds_bit_identical() {
    let store = TableStore::new(repo_results_dir());
    // The artifact is tracked in git: a missing file is a failure, not a
    // reason to skip.
    let prior = store
        .load("quick_prior")
        .expect("the tracked results/quick_prior artifact must load");
    let ctx = default_ctx(&Platform::niagara8());
    assert_eq!(format!("{:016x}", ctx.fingerprint()), "d1dbb4126bee9ce6");
    assert_eq!(prior.fingerprint, ctx.fingerprint());

    // One worker: the certificate pool is per worker, so only the serial
    // build mints exactly the certificates the artifact holds.
    let (rebuilt, _) = TableBuilder::new()
        .tstarts(vec![60.0, 100.0])
        .ftargets(vec![0.2e9, 0.6e9, 0.8e9])
        .threads(1)
        .build_artifact(&ctx)
        .expect("quick prior grid builds");
    assert_eq!(rebuilt.table, prior.table, "table");
    assert_eq!(rebuilt.cells, prior.cells, "per-cell records");
    assert_eq!(rebuilt.certificates, prior.certificates, "certificates");
    assert_eq!(rebuilt.fingerprint, prior.fingerprint, "fingerprint");
}

#[test]
fn default_context_fingerprints_are_pinned() {
    for (name, platform, want) in [
        ("niagara8", Platform::niagara8(), "d1dbb4126bee9ce6"),
        ("biglittle8", Platform::biglittle8(), "a7a68c11a008e385"),
        ("stacked3d", Platform::stacked3d(), "477e609064058ab3"),
    ] {
        let got = format!("{:016x}", default_ctx(&platform).fingerprint());
        assert_eq!(got, want, "{name} fingerprint");
    }
}

/// FNV-1a, folded incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn add_freqs(&mut self, freqs: &[f64]) {
        for f in freqs {
            self.add(&f.to_bits().to_le_bytes());
        }
    }
}

/// FNV-1a over the `Debug` renderings of an artifact's table, per-cell
/// records and certificates (every `f64` prints in shortest round-trip
/// form, so equal digests mean bit-equal outputs).
fn artifact_digest(artifact: &BuildArtifact) -> u64 {
    let mut digest = Fnv::new();
    digest.add(format!("{:?}", artifact.table).as_bytes());
    digest.add(format!("{:?}", artifact.cells).as_bytes());
    digest.add(format!("{:?}", artifact.certificates).as_bytes());
    digest.0
}

/// [`artifact_digest`] without the per-cell Newton counts: equal digests
/// mean bit-equal tables, per-cell verdicts, points, warm/phase-I/polish
/// flags, `rows_pruned` and certificates, however many Newton steps the
/// sweep spent reaching them.
fn artifact_values_digest(artifact: &BuildArtifact) -> u64 {
    let mut digest = Fnv::new();
    digest.add(format!("{:?}", artifact.table).as_bytes());
    for c in &artifact.cells {
        let values = (c.status, &c.x, c.warm, c.phase1, c.rows_pruned, c.polish);
        digest.add(format!("{values:?}").as_bytes());
    }
    digest.add(format!("{:?}", artifact.certificates).as_bytes());
    digest.0
}

/// The deterministic `BuildStats` counters, in declaration order; the
/// wall-clock fields are left out.
fn build_counters(stats: &BuildStats) -> [u64; 14] {
    [
        stats.points as u64,
        stats.solved_points as u64,
        stats.feasible as u64,
        stats.threads as u64,
        stats.warm_started as u64,
        stats.newton_steps,
        stats.phase1_solves,
        stats.certificate_screens,
        stats.seed_reuses,
        stats.incremental_screens,
        stats.rows_pruned,
        stats.polish_mints,
        stats.chain_reentries,
        stats.rows_full as u64,
    ]
}

/// The paper's Figure 4 grid: 30–100 °C in 10 °C steps × 100–1000 MHz.
fn paper_grid() -> TableBuilder {
    TableBuilder::new()
        .tstarts((3..=10).map(|i| f64::from(i) * 10.0).collect())
        .ftargets((1..=10).map(|i| f64::from(i) * 100.0e6).collect())
}

/// The `--quick` grid of `tab_solver_runtime`.
fn quick_grid() -> TableBuilder {
    TableBuilder::new()
        .tstarts(vec![60.0, 90.0, 100.0])
        .ftargets(vec![0.2e9, 0.4e9, 0.6e9, 0.8e9])
}

#[test]
fn paper_grid_sweep_is_pinned() {
    let ctx = default_ctx(&Platform::niagara8());
    let (artifact, stats) = paper_grid()
        .threads(1)
        .build_artifact(&ctx)
        .expect("paper grid builds");
    let digest = artifact_digest(&artifact);
    assert_eq!(
        digest, 0x76c6_bf08_9216_a70e,
        "paper grid digest {digest:#018x}"
    );
    assert_eq!(
        build_counters(&stats),
        [80, 69, 67, 1, 29, 4789, 5, 8, 0, 0, 139_060, 0, 10, 4800],
        "paper grid counters"
    );
}

#[test]
fn paper_grid_values_are_pinned() {
    for (name, platform, want) in [
        ("niagara8", Platform::niagara8(), 0xcf80_8d60_aefb_0868_u64),
        ("biglittle8", Platform::biglittle8(), 0x2ba6_27ec_2ef6_11a2),
        ("stacked3d", Platform::stacked3d(), 0x2d43_11b6_527d_dcd5),
    ] {
        let (artifact, _) = paper_grid()
            .threads(1)
            .build_artifact(&default_ctx(&platform))
            .expect("paper grid builds");
        let digest = artifact_values_digest(&artifact);
        assert_eq!(digest, want, "{name} paper grid values {digest:#018x}");
    }
}

#[test]
fn quick_grid_sweep_on_two_threads_is_pinned() {
    let ctx = default_ctx(&Platform::niagara8());
    let (artifact, stats) = quick_grid()
        .threads(2)
        .build_artifact(&ctx)
        .expect("quick grid builds");
    let digest = artifact_digest(&artifact);
    assert_eq!(
        digest, 0xe05e_a77f_3703_ebf9,
        "quick grid digest {digest:#018x}"
    );
    assert_eq!(
        build_counters(&stats),
        [12, 8, 7, 2, 3, 1128, 2, 3, 0, 0, 18_524, 0, 7, 4800],
        "quick grid counters"
    );
}

#[test]
fn quick_grid_incremental_rebuild_is_pinned() {
    let store = TableStore::new(repo_results_dir());
    let prior = store
        .load("quick_prior")
        .expect("the tracked results/quick_prior artifact must load");
    let ctx = default_ctx(&Platform::niagara8());
    let (artifact, stats) = quick_grid()
        .threads(2)
        .build_incremental(&ctx, &prior)
        .expect("quick grid rebuilds incrementally");
    let digest = artifact_digest(&artifact);
    assert_eq!(
        digest, 0xaf13_46df_feed_7824,
        "incremental digest {digest:#018x}"
    );
    assert_eq!(
        build_counters(&stats),
        [12, 5, 7, 2, 4, 1495, 1, 3, 3, 3, 9880, 0, 12, 4800],
        "incremental counters"
    );
}

/// `(max core temperature °C, demanded average frequency Hz)` per window:
/// a cold start and a warm chain, certified-infeasible windows (100 °C
/// and 150 °C), repeats of the 100 °C window that pooled certificates
/// screen, a frontier window that bisects to a feasible target, and a
/// cool-down that re-establishes the warm chain.
const WINDOWS: [(f64, f64); 20] = [
    (60.0, 0.5e9),
    (61.0, 0.5e9),
    (62.0, 0.55e9),
    (100.0, 0.6e9),
    (100.0, 0.6e9),
    (150.0, 0.4e9),
    (60.0, 0.4e9),
    (65.0, 0.45e9),
    (70.0, 0.5e9),
    (75.0, 0.5e9),
    (90.0, 0.8e9),
    (92.0, 0.8e9),
    (100.0, 0.6e9),
    (80.0, 0.3e9),
    (78.0, 0.35e9),
    (150.0, 0.9e9),
    (55.0, 0.7e9),
    (56.0, 0.7e9),
    (57.0, 0.6e9),
    (100.0, 0.8e9),
];

fn observation(window: usize, temp_c: f64, demand_hz: f64, cores: usize) -> Observation {
    Observation {
        window_index: window as u64,
        core_temps: vec![temp_c; cores],
        max_core_temp: temp_c,
        required_avg_freq_hz: demand_hz,
        queue_len: 0,
        backlog_work_us: 0.0,
        utilization: vec![0.5; cores],
    }
}

/// Runs `policy` over [`WINDOWS`], folding every served frequency bit and
/// (when the policy reports one) every rung into one digest.
fn run_windows(policy: &mut dyn DfsPolicy, platform: &Platform) -> u64 {
    let mut digest = Fnv::new();
    for (w, &(temp_c, demand_hz)) in WINDOWS.iter().enumerate() {
        let obs = observation(w, temp_c, demand_hz, platform.num_cores());
        let freqs = policy.frequencies(&obs, platform);
        digest.add_freqs(&freqs);
        if let Some(level) = policy.ladder_level() {
            digest.add(&[level]);
        }
    }
    digest.0
}

/// A policy that serves its inner policy's frequencies and reports no
/// ladder rung, so [`run_windows`] digests the frequency bits alone.
struct FrequenciesOnly<P>(P);

impl<P: DfsPolicy> DfsPolicy for FrequenciesOnly<P> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn frequencies(&mut self, obs: &Observation, platform: &Platform) -> Vec<f64> {
        self.0.frequencies(obs, platform)
    }
}

#[test]
fn controllers_reproduce_pinned_window_outputs() {
    let platform = Platform::niagara8();
    let ctx = default_ctx(&platform);

    // With no table and no deadline the ladder is the plain MPC
    // controller: its frequency bits alone, rung hidden, are pinned too.
    let mut plain_mpc = FrequenciesOnly(LadderController::new(ctx.clone(), 0));
    let digest = run_windows(&mut plain_mpc, &platform);
    assert_eq!(digest, 0xd421_a086_525b_408b, "plain MPC digest");

    let mut ladder = LadderController::new(ctx.clone(), 0);
    let digest = run_windows(&mut ladder, &platform);
    assert_eq!(digest, 0x122b_76ad_4e22_18f7, "ladder digest");
    assert_eq!(
        ladder.telemetry(),
        LadderTelemetry {
            ticks: 20,
            rung_counts: [14, 0, 0, 0, 6],
            truncated_serves: 0,
            infeasible_probes: 38,
            screened_probes: 35,
            solver_errors: 0,
            backoffs: 0,
            table_misses: 0,
            max_tick_newton: 121,
            newton_steps: 922,
            budget_overruns: 0,
        }
    );

    // An 8-step tick budget: truncated serves, undecided probes, backoff
    // to the (missing) table rung and the integral rung.
    let mut budgeted = LadderController::new(ctx, 8);
    let digest = run_windows(&mut budgeted, &platform);
    assert_eq!(digest, 0x2bae_e9df_0d45_f760, "budgeted digest");
    assert_eq!(
        budgeted.telemetry(),
        LadderTelemetry {
            ticks: 20,
            rung_counts: [0, 12, 0, 2, 6],
            truncated_serves: 12,
            infeasible_probes: 12,
            screened_probes: 11,
            solver_errors: 0,
            backoffs: 3,
            table_misses: 6,
            max_tick_newton: 8,
            newton_steps: 127,
            budget_overruns: 0,
        }
    );
}

/// FNV-1a digest of a report's `Debug` rendering, which prints every
/// `f64` in shortest round-trip form: equal digests mean bit-equal
/// reports, recorded trajectory included.
fn report_digest(report: &SimReport) -> u64 {
    let mut digest = Fnv::new();
    digest.add(format!("{report:?}").as_bytes());
    digest.0
}

/// The closed-loop set-up the scenario A/B and the benchmark loops use:
/// a 70 °C start, the controller's limit, and a recorded trajectory.
fn traced_sim_config(max_duration_s: f64) -> SimConfig {
    SimConfig {
        t_init_c: 70.0,
        tmax_c: ControlConfig::default().tmax_c,
        max_duration_s,
        record_trace: true,
        ..SimConfig::default()
    }
}

/// The scenario A/B's bursty-but-sustainable mix: compute segments that
/// saturate demand alternating with light segments that drain it.
fn scenario_mix(duration_s: f64, cores: usize) -> Trace {
    let light = BenchmarkProfile {
        name: "light".to_string(),
        min_work_us: 1_000,
        max_work_us: 3_000,
        load: 0.15,
        pattern: ArrivalPattern::Poisson,
    };
    TraceGenerator::new(0xDA7E_2008 + 7).generate_mix(
        &[
            BenchmarkProfile::compute_intensive(),
            light.clone(),
            BenchmarkProfile::web_serving(),
            light,
            BenchmarkProfile::multimedia(),
        ],
        5.0,
        duration_s,
        cores,
    )
}

#[test]
fn table_controller_on_stacked3d_reproduces_pinned_report() {
    let platform = Platform::stacked3d();
    let ctx = default_ctx(&platform);
    let (table, _) = TableBuilder::new()
        .tstarts(vec![60.0, 70.0, 75.0, 80.0, 85.0, 90.0, 95.0, 100.0])
        .ftargets(
            (1..=6)
                .map(|i| 0.15 * f64::from(i) * platform.fmax_hz)
                .collect(),
        )
        .threads(1)
        .build(&ctx)
        .expect("stacked3d grid builds");
    let trace = scenario_mix(200.0, platform.num_cores());
    let mut policy = ProTempController::new(table);
    let report = run_simulation(
        &platform,
        &trace,
        &mut policy,
        &mut FirstIdle,
        &traced_sim_config(200.0),
    )
    .expect("stacked3d run");
    assert_eq!(report.windows, 2000);
    assert_eq!(
        report_digest(&report),
        0xa7b3_25c3_58d5_0053,
        "stacked3d report digest"
    );
}

#[test]
fn integral_baseline_on_biglittle8_reproduces_pinned_report() {
    let platform = Platform::biglittle8();
    let trace = scenario_mix(40.0, platform.num_cores());
    let mut policy = IntegralController::for_limit(ControlConfig::default().tmax_c);
    let report = run_simulation(
        &platform,
        &trace,
        &mut policy,
        &mut FirstIdle,
        &traced_sim_config(40.0),
    )
    .expect("biglittle8 run");
    assert_eq!(report.windows, 400);
    assert_eq!(
        report_digest(&report),
        0x812e_f46e_aec8_91e2,
        "biglittle8 report digest"
    );
}

#[test]
fn ladder_on_niagara8_reproduces_pinned_report() {
    let platform = Platform::niagara8();
    // The paper's Fig. 6(a) mix: web, multimedia and compute segments.
    let trace = TraceGenerator::new(0xDA7E_2008).generate_mix(
        &[
            BenchmarkProfile::web_serving(),
            BenchmarkProfile::multimedia(),
            BenchmarkProfile::compute_intensive(),
        ],
        5.0,
        4.0,
        platform.num_cores(),
    );
    // The MPC windows build their offsets through `AffineReach::offsets`
    // from the sensed temperature, so this run also pins that propagation.
    let mut policy = LadderController::new(default_ctx(&platform), 2000);
    let report = run_simulation(
        &platform,
        &trace,
        &mut policy,
        &mut FirstIdle,
        &traced_sim_config(4.0),
    )
    .expect("niagara8 run");
    assert_eq!(report.windows, 40);
    assert_eq!(
        report_digest(&report),
        0x159a_bc32_eaa4_0d38,
        "niagara8 report digest"
    );
}

/// `(starting temperature °C, fraction of the platform's fmax)`: cool and
/// hot starts on both sides of the feasibility frontier, and a NaN start
/// that must fail validation, not reach the solver.
const ONE_SHOT_POINTS: [(f64, f64); 12] = [
    (30.0, 0.9),
    (50.0, 0.6),
    (60.0, 0.2),
    (60.0, 0.8),
    (70.0, 0.5),
    (75.0, 0.35),
    (80.0, 0.42),
    (85.0, 0.7),
    (92.0, 0.1),
    (92.0, 1.0),
    (100.0, 0.3),
    (f64::NAN, 0.5),
];

/// FNV-1a over the `Debug` renderings of `solve_assignment` and
/// `check_feasible` at every [`ONE_SHOT_POINTS`] entry.
fn one_shot_digest(ctx: &AssignmentContext) -> u64 {
    let fmax = ctx.platform().fmax_hz;
    let mut digest = Fnv::new();
    for &(tstart_c, frac) in &ONE_SHOT_POINTS {
        let ftarget_hz = frac * fmax;
        let solved = solve_assignment(ctx, tstart_c, ftarget_hz);
        digest.add(format!("{solved:?}").as_bytes());
        let feasible = check_feasible(ctx, tstart_c, ftarget_hz);
        digest.add(format!("{feasible:?}").as_bytes());
    }
    digest.0
}

#[test]
fn one_shot_solves_on_niagara8_are_pinned() {
    let digest = one_shot_digest(&default_ctx(&Platform::niagara8()));
    assert_eq!(
        digest, 0x0d18_3472_95ec_cbde,
        "niagara8 one-shot digest {digest:#018x}"
    );
}

#[test]
fn one_shot_solves_on_biglittle8_are_pinned() {
    let digest = one_shot_digest(&default_ctx(&Platform::biglittle8()));
    assert_eq!(
        digest, 0x47c0_79fd_3f45_57ce,
        "biglittle8 one-shot digest {digest:#018x}"
    );
}

#[test]
fn one_shot_solves_on_stacked3d_are_pinned() {
    let digest = one_shot_digest(&default_ctx(&Platform::stacked3d()));
    assert_eq!(
        digest, 0xa116_9ac1_3343_eb8c,
        "stacked3d one-shot digest {digest:#018x}"
    );
}

#[test]
fn one_shot_solves_in_uniform_mode_are_pinned() {
    let cfg = ControlConfig {
        mode: FreqMode::Uniform,
        ..ControlConfig::default()
    };
    let ctx = AssignmentContext::new(&Platform::niagara8(), &cfg).unwrap();
    let digest = one_shot_digest(&ctx);
    assert_eq!(
        digest, 0x192d_6dcc_b18b_3062,
        "uniform niagara8 one-shot digest {digest:#018x}"
    );
}

#[test]
fn frontier_sweep_is_pinned() {
    let ctx = default_ctx(&Platform::niagara8());
    let points = frontier::sweep(&ctx, &[50.0, 80.0], 20e6, true).expect("frontier sweep");
    let mut digest = Fnv::new();
    digest.add(format!("{points:?}").as_bytes());
    assert_eq!(
        digest.0, 0xf907_1de1_2e6c_411f,
        "frontier digest {:#018x}",
        digest.0
    );
}

/// FNV-1a over the row-reduction verdict and kept rows of the family of
/// `platform` at `gradient_stride`, read through the family's own
/// analysis, over 30–100 °C in 10 °C steps × five targets. The hot rows
/// are where the first-step temperature rows undercut the static power
/// box, so the harvested box differs from cell to cell. Returns the
/// digest and the number of cells that pruned anything.
fn selection_digest(platform: &Platform, gradient_stride: usize) -> (u64, usize) {
    let cfg = ControlConfig {
        gradient_stride,
        ..ControlConfig::default()
    };
    let ctx = AssignmentContext::new(platform, &cfg).unwrap();
    let analysis = ctx
        .family()
        .analysis()
        .expect("a default-option family carries an analysis");
    let fmax = ctx.platform().fmax_hz;
    let (mut rhs, mut lo, mut hi, mut dropped, mut kept) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut digest = Fnv::new();
    let mut pruning_cells = 0;
    for tstart_c in (3..=10).map(|i| f64::from(i) * 10.0) {
        let offsets = ctx.offsets_for(tstart_c);
        for frac in [0.1, 0.3, 0.5, 0.7, 0.9] {
            ctx.point_rhs_into(&offsets, frac * fmax, &mut rhs);
            let any = analysis.select_into(&rhs, &mut lo, &mut hi, &mut dropped, &mut kept);
            digest.add(&[u8::from(any)]);
            if any {
                pruning_cells += 1;
                digest.add(&(kept.len() as u64).to_le_bytes());
                for &row in &kept {
                    digest.add(&(row as u64).to_le_bytes());
                }
            }
        }
    }
    (digest.0, pruning_cells)
}

#[test]
fn row_selections_are_pinned() {
    let mut mismatches = Vec::new();
    for (name, platform, stride, want) in [
        (
            "niagara8",
            Platform::niagara8(),
            5,
            0xf090_a2ad_baed_6a3e_u64,
        ),
        ("niagara8", Platform::niagara8(), 1, 0x0e03_8889_08a8_1ea9),
        (
            "biglittle8",
            Platform::biglittle8(),
            5,
            0x8e69_f4b5_4c28_3e04,
        ),
        (
            "biglittle8",
            Platform::biglittle8(),
            1,
            0xd1f1_2e3e_ccde_2fdf,
        ),
        ("stacked3d", Platform::stacked3d(), 5, 0xd093_0076_6f60_f171),
        ("stacked3d", Platform::stacked3d(), 1, 0xe975_54d7_e2c2_f085),
    ] {
        let (digest, pruning_cells) = selection_digest(&platform, stride);
        assert!(pruning_cells > 0, "{name} stride {stride}: nothing pruned");
        if digest != want {
            mismatches.push(format!(
                "{name} stride {stride}: {digest:#018x} ({pruning_cells} pruning cells)"
            ));
        }
    }
    assert!(mismatches.is_empty(), "selection digests: {mismatches:#?}");
}
