//! Golden-output tests: the Phase-1 sweep and the per-window MPC
//! controllers must keep reproducing outputs pinned from a known-good
//! build, bit for bit.
//!
//! * the checked-in `results/quick_prior` artifact rebuilds identically
//!   (table, per-cell records, certificates, fingerprint);
//! * the default contexts of the three built-in platforms keep their
//!   fingerprints, so persisted artifacts stay valid;
//! * `OnlineController` and `LadderController` serve the same frequency
//!   bits and counters over a fixed window sequence that crosses
//!   certified-infeasible, screened and warm-chained windows.

use std::path::PathBuf;

use protemp::{
    AssignmentContext, ControlConfig, LadderController, LadderTelemetry, OnlineController,
    TableBuilder, TableStore,
};
use protemp_sim::{DfsPolicy, Observation, Platform};

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

#[test]
fn controllers_reproduce_pinned_window_outputs() {
    let platform = Platform::niagara8();
    let ctx = default_ctx(&platform);

    let mut online = OnlineController::new(ctx.clone());
    let digest = run_windows(&mut online, &platform);
    assert_eq!(digest, 0xd421_a086_525b_408b, "online digest");
    assert_eq!(online.counters(), (20, 38), "online (solves, infeasible)");
    assert_eq!(online.warm_solves(), 10);
    assert_eq!(online.screened_windows(), 35);
    assert_eq!(online.certificate_count(), 3);

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
            max_tick_newton: 153,
            budget_overruns: 0,
        }
    );

    // An 8-step tick budget: truncated serves, undecided probes, backoff
    // to the (missing) table rung and the integral rung.
    let mut budgeted = LadderController::new(ctx, 8);
    let digest = run_windows(&mut budgeted, &platform);
    assert_eq!(digest, 0x3760_b584_d7e7_ea63, "budgeted digest");
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
            budget_overruns: 0,
        }
    );
}
