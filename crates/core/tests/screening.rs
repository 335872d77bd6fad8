//! Certificate-screening soundness on real design points.
//!
//! The contract: screening may only ever *skip work*, never change a
//! verdict. Any cell an inherited certificate rejects must be confirmed
//! infeasible by a full phase-I solve, and a table built with screening on
//! must be byte-identical to one built with screening off. (The bench
//! binary asserts the same identity on the paper's full 8×10 grid; these
//! tests keep the property under `cargo test` on a grid that still spans
//! the feasibility frontier.)

use proptest::prelude::*;
use protemp::{AssignmentContext, ControlConfig, PointSolver, TableBuilder};
use protemp_sim::Platform;

fn ctx() -> AssignmentContext {
    AssignmentContext::new(&Platform::niagara8(), &ControlConfig::default()).unwrap()
}

#[test]
fn table_identical_with_screening_on_and_off() {
    let ctx = ctx();
    // Spans the frontier with a common dead row: at a 100 °C start nothing
    // ≥ 200 MHz is feasible, so the first column's certificate dominates
    // the hotter cells of every later column and screening actually fires.
    let builder = TableBuilder::new()
        .tstarts(vec![55.0, 85.0, 100.0])
        .ftargets(vec![0.2e9, 0.4e9, 0.6e9])
        .threads(1);
    let (plain, plain_stats) = builder
        .clone()
        .certificate_screening(false)
        .build(&ctx)
        .unwrap();
    let (screened, screened_stats) = builder.build(&ctx).unwrap();
    assert_eq!(
        plain, screened,
        "screening must never change a feasibility verdict"
    );
    assert_eq!(plain_stats.certificate_screens, 0);
    assert!(
        screened_stats.certificate_screens > 0,
        "this grid crosses the frontier; screening must fire"
    );
    assert!(
        screened_stats.newton_steps <= plain_stats.newton_steps,
        "screening may only skip work ({} vs {})",
        screened_stats.newton_steps,
        plain_stats.newton_steps
    );
    assert!(plain_stats.phase1_solves > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Mint a certificate at a frontier cell, screen a dominated
    /// neighbour; every rejection must be confirmed by an independent,
    /// unscreened phase-I solve.
    #[test]
    fn screened_rejections_confirmed_by_full_phase1(
        t1 in 88.0_f64..96.0,
        f1 in 0.6_f64..0.9,
        dt in 0.0_f64..4.0,
        df in 0.0_f64..0.1,
    ) {
        let ctx = ctx();
        let mut solver = PointSolver::new(&ctx);
        solver.set_screening(true);
        let first = solver.solve_point(t1, f1 * 1e9, None).unwrap();
        // Only infeasible first cells mint a certificate; feasible draws
        // simply don't exercise the property.
        if first.solution.is_none() && solver.certificate_count() > 0 {
            let (t2, f2) = (t1 + dt, (f1 + df) * 1e9);
            solver.prepare(t2, f2);
            if solver.screen_current() {
                let mut confirm = PointSolver::new(&ctx);
                let full = confirm.solve_point(t2, f2, None).unwrap();
                prop_assert!(
                    !full.screened && full.solution.is_none(),
                    "cell ({t2} C, {f2:.3e} Hz) was screened but a full solve found it feasible"
                );
                prop_assert!(full.phase1_steps > 0, "confirmation must come from phase I");
            }
        }
    }
}
