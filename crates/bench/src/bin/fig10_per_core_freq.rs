//! **Figure 10** — the operating frequencies of processors P1 and P2
//! computed by the convex optimization, as a function of the starting
//! temperature.
//!
//! Paper shape: the edge core P1 (next to a cool L2 bank) runs
//! significantly faster than the middle core P2 (sandwiched between hot
//! cores) to achieve a similar thermal behaviour.

fn main() {
    protemp_bench::figures::fig10();
}
