//! **Figure 7** — average task waiting time of Pro-Temp normalized to
//! Basic-DFS on the computation-intensive workload.
//!
//! Paper shape: Pro-Temp reduces waiting times substantially (the paper
//! reports ~60 %), because Basic-DFS duty-cycles between full speed and
//! shutdown while Pro-Temp sustains the highest safe frequency.

use protemp_bench::{build_table, control_config, figures};

fn main() {
    figures::fig07(&build_table(&control_config()));
}
