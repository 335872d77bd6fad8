//! **Figure 9** — the maximum average frequency the 8 processors can
//! sustain for one DFS window, as a function of the starting temperature,
//! for uniform vs variable frequency assignments.
//!
//! Paper shape: the frontier decreases with temperature, and the
//! non-uniform (variable) assignment supports a higher average workload
//! than the uniform one.

fn main() {
    protemp_bench::figures::fig09();
}
