//! Runs the complete evaluation: builds the Phase-1 table once, runs every
//! figure of the paper over it with the `fig*` binaries' code (so it writes
//! the same files under `results/`, byte for byte), and prints a summary of
//! the paper-vs-measured comparison. A figure whose paper-shape check
//! fails panics, so the run exits non-zero.

use protemp_bench::figures::{
    fig01, fig02, fig04, fig06a, fig06b, fig07, fig08, fig09, fig10, fig11,
};
use protemp_bench::{build_table, control_config};
use std::time::Instant;

fn main() {
    let wall = Instant::now();
    let table = build_table(&control_config());
    let phase1_s = wall.elapsed().as_secs_f64();

    let basic_pct = 100.0 * fig01();
    let protemp_pct = 100.0 * fig02(&table);
    let feasible = fig04(&table);
    let cells = table.len();
    let mixed_pct = 100.0 * fig06a(&table);
    let compute_pct = 100.0 * fig06b(&table);
    let wait_ratio = fig07(&table);
    let gradient_c = fig08(&table);
    let gap_mhz = fig09();
    let p1_over_p2 = fig10();
    let cut_pct = 100.0 * fig11(&table);
    let total_s = wall.elapsed().as_secs_f64();

    println!(
        "\n=== Paper-vs-measured summary ===\n\
         claim                                       | paper     | measured\n\
         Fig. 1: basic-dfs time above t_max          | > 0       | {basic_pct:.2}%\n\
         Fig. 2: pro-temp time above t_max           | 0%        | {protemp_pct:.2}%\n\
         Fig. 4: feasible table cells                | -         | {feasible} of {cells}\n\
         Fig. 6(a): basic-dfs above 100 C, mixed     | > 0       | {mixed_pct:.2}%\n\
         Fig. 6(b): basic-dfs above 100 C, compute   | up to 40% | {compute_pct:.2}%\n\
         Fig. 7: pro-temp normalized waiting time    | ~0.4      | {wait_ratio:.3}\n\
         Fig. 8: pro-temp mean spatial gradient      | low       | {gradient_c:.2} C\n\
         Fig. 9: min variable - uniform frontier     | >= 0      | {gap_mhz:+.1} MHz\n\
         Fig. 10: edge P1 / middle P2 frequency      | > 1       | {p1_over_p2:.3}\n\
         Fig. 11: assignment cuts pro-temp gradient  | 16%       | {cut_pct:.1}%\n\
         phase-1 build                               | hours     | {phase1_s:.1} s\n\
         \n\
         total repro_all wall time: {total_s:.1} s"
    );
}
