//! **Figure 1** — snap-shot of the thermal behaviour of processor P1 under
//! traditional (reactive) Basic-DFS on a hot workload.
//!
//! Paper: the core repeatedly exceeds the 100 °C limit before the 90 °C
//! threshold shutdown cools it back down. This binary prints the P1
//! temperature series and the violation statistics.

fn main() {
    protemp_bench::figures::fig01();
}
