//! **Figure 6(b)** — temperature-band occupancy for the most
//! computation-intensive benchmark.
//!
//! Paper shape: Basic-DFS spends a large fraction (up to 40 % in the
//! paper's platform) of the time above the maximum threshold; Pro-Temp
//! spends none.

use protemp_bench::{build_table, control_config, figures};

fn main() {
    figures::fig06b(&build_table(&control_config()));
}
