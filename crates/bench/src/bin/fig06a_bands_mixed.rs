//! **Figure 6(a)** — percentage of time the cores (averaged) spend in each
//! temperature band under No-TC, Basic-DFS and Pro-Temp, for the mixed
//! benchmark trace.
//!
//! Paper shape: Pro-Temp has zero occupancy above 100 °C; No-TC and
//! Basic-DFS spend significant time above the limit.

use protemp_bench::{build_table, control_config, figures};

fn main() {
    figures::fig06a(&build_table(&control_config()));
}
