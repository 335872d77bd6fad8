//! **Figure 4** — the structure of the Phase-1 output table: frequency
//! vectors indexed by starting temperature and target frequency.
//!
//! Prints the table in the paper's layout and writes its machine-readable
//! form to `results/fig04_table.txt`.

use protemp_bench::{build_table, control_config, figures};

fn main() {
    figures::fig04(&build_table(&control_config()));
}
