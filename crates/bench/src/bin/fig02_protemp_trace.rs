//! **Figure 2** — snap-shot of the thermal behaviour of processor P1 under
//! the proposed Pro-Temp method on the same workload as Figure 1.
//!
//! Paper: the maximum temperature constraint is met at all time instances.

use protemp_bench::{build_table, control_config, figures};

fn main() {
    figures::fig02(&build_table(&control_config()));
}
