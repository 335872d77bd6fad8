//! **Figure 8** — temperatures of processors P1 and P2 over time under
//! Pro-Temp.
//!
//! Paper shape: the spatial temperature gradient across the processors is
//! low (the gradient term in objective (5) actively balances them).

use protemp_bench::{build_table, control_config, figures};

fn main() {
    figures::fig08(&build_table(&control_config()));
}
