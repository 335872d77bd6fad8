//! **Figure 11** — effect of a thermal-aware task-assignment policy
//! (Coskun et al. \[26\], reproduced as coolest-first).
//!
//! The paper makes two claims, which we evaluate on the workloads where
//! each mechanism is active:
//!
//! 1. With the efficient assignment, Basic-DFS spends less time above the
//!    maximum temperature on the high-workload benchmark (but still
//!    violates, "due to the burstiness in the task arrival pattern").
//! 2. Integrating the assignment with Pro-Temp further reduces the spatial
//!    temperature difference across the cores (the paper reports 16 %).
//!
//! Note on (1): our control unit dispatches queued tasks instantly, so at
//! saturating load every core is busy and the assignment policy has no
//! discretionary choices — the measured Basic-DFS effect is therefore
//! small.

use protemp_bench::{build_table, control_config, figures};

fn main() {
    figures::fig11(&build_table(&control_config()));
}
