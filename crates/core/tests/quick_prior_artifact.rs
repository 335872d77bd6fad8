//! Regression coverage for the checked-in `results/quick_prior.{table,certs}`
//! artifact that `ci.sh --quick` rebuilds incrementally against.
//!
//! After any change to the stats layout (the reduction pass added
//! `rows_pruned`/`polish` fields to every `stats` line) the artifact must
//! keep (a) loading, (b) re-verifying its certificates against the live
//! model, and (c) serving `build_incremental` — otherwise the quick CI
//! telemetry silently degrades to a cold rebuild.

use std::path::PathBuf;

use protemp::{AssignmentContext, ControlConfig, TableBuilder, TableStore};
use protemp_sim::Platform;

fn repo_results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results")
}

/// The `--quick` grid and its checked-in prior (keep in sync with
/// `tab_solver_runtime`).
fn quick_grid() -> TableBuilder {
    TableBuilder::new()
        .tstarts(vec![60.0, 90.0, 100.0])
        .ftargets(vec![0.2e9, 0.4e9, 0.6e9, 0.8e9])
}

#[test]
fn checked_in_quick_prior_still_loads_verifies_and_seeds_incremental_builds() {
    let store = TableStore::new(repo_results_dir());
    // The artifact is tracked in git: a missing file is a failure, not a
    // reason to skip.
    let mut prior = store
        .load("quick_prior")
        .expect("the tracked results/quick_prior artifact must load");
    assert_eq!(
        prior.cells.len(),
        prior.table.len(),
        "per-cell records must cover the grid"
    );

    let ctx = AssignmentContext::new(&Platform::niagara8(), &ControlConfig::default()).unwrap();
    assert_eq!(
        prior.fingerprint,
        ctx.fingerprint(),
        "checked-in quick prior was built under a different context; \
         regenerate it with `tab_solver_runtime --quick`"
    );
    assert!(
        !prior.certificates.is_empty(),
        "the quick prior's frontier must have minted certificates"
    );
    let dropped = prior.verify_certificates(&ctx);
    assert_eq!(
        dropped, 0,
        "every persisted certificate must still verify against the live model"
    );

    // The incremental rebuild against it must stay bit-identical to a cold
    // build and actually reuse the shared grid prefix.
    let (cold, _) = quick_grid().build(&ctx).expect("cold quick build");
    let (inc, stats) = quick_grid()
        .build_incremental(&ctx, &prior)
        .expect("incremental quick build");
    assert_eq!(
        inc.table, cold,
        "incremental rebuild must be bit-identical to the cold build"
    );
    assert!(
        stats.seed_reuses >= 1,
        "the prior shares the quick grid's coolest row; replay must fire"
    );
}
