use protemp_linalg::{eigen, expm, Lu, Matrix};
use serde::{Deserialize, Serialize};

use crate::{RcNetwork, Result, ThermalError};

/// Discretization scheme for the thermal dynamics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum IntegrationMethod {
    /// Explicit (forward) Euler — the paper's Equation (1). Conditionally
    /// stable: requires `dt < 2/λ_max(C⁻¹G)` (see [`stability_limit`]).
    ForwardEuler,
    /// Implicit (backward) Euler — unconditionally stable extension.
    BackwardEuler,
    /// Exact matrix-exponential map for piecewise-constant inputs; used to
    /// validate the Euler schemes.
    Exact,
}

/// Largest forward-Euler-stable time step, `2/λ_max(C⁻¹G)`, in seconds.
///
/// This reproduces the paper's Section 4 observation that the thermal
/// equation "had to be solved with a time step of 0.4 ms" to achieve
/// numerical stability: steps above the returned bound diverge.
///
/// Uses the full Jacobi eigendecomposition of the symmetrized system matrix
/// `S = C^{-1/2} G C^{-1/2}`, so the returned limit is built from the *exact*
/// extremal eigenvalue rather than a power-iteration estimate (which
/// approaches `λ_max` from below and therefore reported a slightly
/// conservative limit).
///
/// # Errors
///
/// Propagates eigenvalue failures (the thermal matrices here have real
/// spectra, so failures indicate a malformed network).
pub fn stability_limit(net: &RcNetwork) -> Result<f64> {
    // C⁻¹G is similar to the symmetric S = C^{-1/2} G C^{-1/2}; use the
    // symmetric form so the Jacobi eigensolver applies directly.
    let s = symmetrized_system(net);
    let (lambda, _) = eigen::sym_eig(&s)?;
    let lmax = lambda.last().copied().unwrap_or(0.0);
    if lmax <= 0.0 {
        return Err(ThermalError::NotFinite);
    }
    Ok(2.0 / lmax)
}

/// The capacitance-symmetrized system matrix `S = C^{-1/2} G C^{-1/2}`.
///
/// `S` is similar to `C⁻¹G` (via the scaling `C^{1/2}`), symmetric, and
/// positive definite for a connected network with ambient coupling, so the
/// stability limit above can read its spectrum with the Jacobi eigensolver.
pub(crate) fn symmetrized_system(net: &RcNetwork) -> Matrix {
    let n = net.num_nodes();
    let c = net.capacitance();
    let g = net.conductance();
    Matrix::from_fn(n, n, |r, col| g[(r, col)] / (c[r] * c[col]).sqrt())
}

/// A discrete-time linear map `T⁺ = A_d·T + B_d·u` advancing the thermal
/// state by one step of `dt` seconds under piecewise-constant input.
///
/// `u` is the *nodal* input vector produced by [`RcNetwork::input_vector`]
/// (injected block powers plus the ambient source term).
///
/// # Example
///
/// ```
/// use protemp_floorplan::niagara::niagara8;
/// use protemp_thermal::{DiscreteModel, IntegrationMethod, RcNetwork, ThermalConfig};
///
/// let net = RcNetwork::from_floorplan(&niagara8(), &ThermalConfig::default());
/// let model = DiscreteModel::new(&net, 0.4e-3, IntegrationMethod::ForwardEuler).unwrap();
/// let mut t = net.uniform_state(45.0);
/// let u = net.input_vector(&net.full_power_vector(4.0)).unwrap();
/// for _ in 0..100 {
///     t = model.step(&t, &u);
/// }
/// assert!(t.iter().all(|x| x.is_finite()));
/// ```
#[derive(Debug, Clone)]
pub struct DiscreteModel {
    a: Matrix,
    b: Matrix,
    kernel: StepKernel,
    dt: f64,
    num_nodes: usize,
}

impl DiscreteModel {
    /// Builds the discrete map for the given network, step and method.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::UnstableStep`] if `method` is forward Euler and
    ///   `dt` exceeds [`stability_limit`].
    /// * [`ThermalError::Linalg`] if a factorization/exponential fails.
    pub fn new(net: &RcNetwork, dt: f64, method: IntegrationMethod) -> Result<Self> {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        let n = net.num_nodes();
        let m = net.system_matrix(); // C⁻¹ G
        let c = net.capacitance();
        let (a, b) = match method {
            IntegrationMethod::ForwardEuler => {
                let limit = stability_limit(net)?;
                if dt > limit {
                    return Err(ThermalError::UnstableStep { dt, limit });
                }
                // A = I − dt·C⁻¹G ; B = dt·C⁻¹.
                let mut a = m.scale(-dt);
                for i in 0..n {
                    a[(i, i)] += 1.0;
                }
                let b = Matrix::from_diag(&c.iter().map(|ci| dt / ci).collect::<Vec<_>>());
                (a, b)
            }
            IntegrationMethod::BackwardEuler => {
                // (I + dt·C⁻¹G)·T⁺ = T + dt·C⁻¹·u.
                let mut s = m.scale(dt);
                for i in 0..n {
                    s[(i, i)] += 1.0;
                }
                let lu = Lu::factor(&s)?;
                let a = lu.solve_matrix(&Matrix::identity(n))?;
                let binv = Matrix::from_diag(&c.iter().map(|ci| dt / ci).collect::<Vec<_>>());
                let b = a.matmul(&binv)?;
                (a, b)
            }
            IntegrationMethod::Exact => {
                // T⁺ = e^{−M·dt}·T + (I − e^{−M·dt})·G⁻¹·u.
                let a = expm(&m.scale(-dt))?;
                let mut ima = a.scale(-1.0);
                for i in 0..n {
                    ima[(i, i)] += 1.0;
                }
                let ginv = Lu::factor(net.conductance())?.inverse()?;
                let b = ima.matmul(&ginv)?;
                (a, b)
            }
        };
        Ok(DiscreteModel {
            kernel: StepKernel::new(&a, &b),
            a,
            b,
            dt,
            num_nodes: n,
        })
    }

    /// The state-propagation matrix `A_d`.
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// The input matrix `B_d`.
    pub fn b(&self) -> &Matrix {
        &self.b
    }

    /// The time step in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Number of thermal nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Advances the state one step: returns `A_d·t + B_d·u`.
    ///
    /// # Panics
    ///
    /// Panics if `t` or `u` have the wrong length.
    pub fn step(&self, t: &[f64], u: &[f64]) -> Vec<f64> {
        let mut next = vec![0.0; self.num_nodes];
        self.step_into(t, u, &mut next);
        next
    }

    /// Writes one step, `A_d·t + B_d·u`, into `out` without allocating.
    ///
    /// The nonzeros of each row of `A_d` and `B_d` are collected once, at
    /// construction, and a row sums only those, in column order from
    /// `+0.0`. Forward Euler's `A_d = I − dt·C⁻¹G` has the network's
    /// sparsity and its `B_d = dt·C⁻¹` is diagonal; the dense integrators
    /// simply have full rows. [`DiscreteModel::step`],
    /// [`DiscreteModel::simulate`], [`crate::ThermalSim::step`] and
    /// [`crate::AffineReach::offsets`] all run this one kernel.
    ///
    /// **Exactness.** For finite `t` and `u` the result is bit-identical to
    /// the dense products `A_d·t` and `B_d·u` folded as `acc += a·x` over
    /// every column from `acc = +0.0`. A skipped product `a·x` with
    /// `a = ±0.0` is itself `±0.0`; an accumulator that starts at `+0.0`
    /// never becomes `−0.0` (a sum of two floats is `−0.0` only when both
    /// are); and adding `±0.0` to any other value leaves it unchanged. A
    /// non-finite `x` breaks this (`0·∞` is NaN), which is why the
    /// simulator validates its initial temperature and zeroes non-finite
    /// powers before they reach the step.
    ///
    /// # Panics
    ///
    /// Panics if `t`, `u` or `out` have the wrong length.
    pub fn step_into(&self, t: &[f64], u: &[f64], out: &mut [f64]) {
        self.kernel.step_into(t, u, out);
    }

    /// Simulates `steps` steps under constant input, returning the final
    /// state.
    pub fn simulate(&self, t0: &[f64], u: &[f64], steps: usize) -> Vec<f64> {
        let mut t = t0.to_vec();
        let mut next = vec![0.0; t.len()];
        for _ in 0..steps {
            self.step_into(&t, u, &mut next);
            std::mem::swap(&mut t, &mut next);
        }
        t
    }

    /// The nonzero-only step, shared with [`crate::AffineReach`].
    pub(crate) fn kernel(&self) -> &StepKernel {
        &self.kernel
    }
}

/// The nonzeros of `A_d` and `B_d`, row by row in column order, built once
/// per model: the kernel of [`DiscreteModel::step_into`].
#[derive(Debug, Clone)]
pub(crate) struct StepKernel {
    a: RowNonzeros,
    b: RowNonzeros,
}

impl StepKernel {
    fn new(a: &Matrix, b: &Matrix) -> Self {
        StepKernel {
            a: RowNonzeros::new(a),
            b: RowNonzeros::new(b),
        }
    }

    /// Writes `A_d·t + B_d·u` into `out`.
    pub(crate) fn step_into(&self, t: &[f64], u: &[f64], out: &mut [f64]) {
        let n = self.a.num_rows();
        assert_eq!(t.len(), n, "state length mismatch");
        assert_eq!(u.len(), n, "input length mismatch");
        assert_eq!(out.len(), n, "output length mismatch");
        for ((o, a_row), b_row) in out.iter_mut().zip(self.a.rows()).zip(self.b.rows()) {
            *o = dot(a_row, t) + dot(b_row, u);
        }
    }
}

/// One matrix's nonzeros, `(column, value)` per entry, row after row.
#[derive(Debug, Clone)]
struct RowNonzeros {
    /// Row `r` is `entries[start[r]..start[r + 1]]`.
    start: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl RowNonzeros {
    fn new(m: &Matrix) -> Self {
        let mut start = Vec::with_capacity(m.rows() + 1);
        let mut entries = Vec::new();
        start.push(0);
        for r in 0..m.rows() {
            entries.extend(
                m.row(r)
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0.0)
                    .map(|(c, &v)| (c, v)),
            );
            start.push(entries.len());
        }
        RowNonzeros { start, entries }
    }

    fn num_rows(&self) -> usize {
        self.start.len() - 1
    }

    fn rows(&self) -> impl Iterator<Item = &[(usize, f64)]> {
        self.start.windows(2).map(|w| &self.entries[w[0]..w[1]])
    }
}

/// A row's product with `x`, summed in column order from `+0.0`.
fn dot(row: &[(usize, f64)], x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &(c, v) in row {
        acc += v * x[c];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThermalConfig;
    use protemp_floorplan::niagara::niagara8;

    fn net() -> RcNetwork {
        RcNetwork::from_floorplan(&niagara8(), &ThermalConfig::default())
    }

    #[test]
    fn paper_step_is_stable() {
        let net = net();
        let limit = stability_limit(&net).unwrap();
        assert!(
            limit > 0.4e-3,
            "0.4 ms (the paper's step) must be stable; limit is {limit:.2e} s"
        );
    }

    #[test]
    fn exact_limit_at_least_power_iteration_limit() {
        // Shifted power iteration approaches λ_max from below, so the old
        // limit 2/λ_est was ≥ the true limit only up to its convergence
        // tolerance; the Jacobi-exact limit must match it to that tolerance
        // and strictly beat the coarse Gershgorin-style bound 2/‖S‖₁.
        let net = net();
        let s = symmetrized_system(&net);
        let old_limit = 2.0 / eigen::sym_eig_max(&s).unwrap();
        let new_limit = stability_limit(&net).unwrap();
        assert!(
            new_limit >= old_limit * (1.0 - 1e-8),
            "exact limit {new_limit:.9e} fell below the conservative power-iteration \
             limit {old_limit:.9e}"
        );
        let gershgorin_limit = 2.0 / s.norm_one();
        assert!(
            new_limit > gershgorin_limit,
            "exact limit {new_limit:.3e} must strictly beat the norm bound \
             {gershgorin_limit:.3e}"
        );
    }

    #[test]
    fn unstable_step_rejected() {
        let net = net();
        let limit = stability_limit(&net).unwrap();
        let err = DiscreteModel::new(&net, limit * 2.0, IntegrationMethod::ForwardEuler);
        assert!(matches!(err, Err(ThermalError::UnstableStep { .. })));
    }

    #[test]
    fn forward_euler_converges_to_steady_state() {
        let net = net();
        let model = DiscreteModel::new(&net, 0.4e-3, IntegrationMethod::ForwardEuler).unwrap();
        let p = net.full_power_vector(2.0);
        let u = net.input_vector(&p).unwrap();
        let ss = net.steady_state(&p).unwrap();
        // Long simulation approaches steady state on the fast (die) nodes;
        // start at the steady state itself and check it is a fixed point.
        let after = model.simulate(&ss, &u, 1000);
        for (a, s) in after.iter().zip(&ss) {
            assert!((a - s).abs() < 1e-6, "steady state must be a fixed point");
        }
    }

    #[test]
    fn integrators_agree_over_one_window() {
        let net = net();
        let dt = 0.4e-3;
        let fe = DiscreteModel::new(&net, dt, IntegrationMethod::ForwardEuler).unwrap();
        let be = DiscreteModel::new(&net, dt, IntegrationMethod::BackwardEuler).unwrap();
        let ex = DiscreteModel::new(&net, dt, IntegrationMethod::Exact).unwrap();
        let t0 = net.uniform_state(60.0);
        let u = net.input_vector(&net.full_power_vector(4.0)).unwrap();
        let steps = 250; // one 100 ms DFS window
        let tf = fe.simulate(&t0, &u, steps);
        let tb = be.simulate(&t0, &u, steps);
        let te = ex.simulate(&t0, &u, steps);
        for ((f, b), e) in tf.iter().zip(&tb).zip(&te) {
            assert!((f - e).abs() < 0.5, "FE {f:.3} vs exact {e:.3}");
            assert!((b - e).abs() < 0.5, "BE {b:.3} vs exact {e:.3}");
        }
    }

    #[test]
    fn exact_map_semigroup_property() {
        // Stepping twice with dt equals stepping once with 2·dt.
        let net = net();
        let dt = 1e-3;
        let one = DiscreteModel::new(&net, dt, IntegrationMethod::Exact).unwrap();
        let two = DiscreteModel::new(&net, 2.0 * dt, IntegrationMethod::Exact).unwrap();
        let t0 = net.uniform_state(80.0);
        let u = net.input_vector(&net.full_power_vector(3.0)).unwrap();
        let a = one.step(&one.step(&t0, &u), &u);
        let b = two.step(&t0, &u);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn heating_is_monotone_from_cold_start() {
        let net = net();
        let model = DiscreteModel::new(&net, 0.4e-3, IntegrationMethod::ForwardEuler).unwrap();
        let u = net.input_vector(&net.full_power_vector(4.0)).unwrap();
        let mut t = net.uniform_state(net.ambient_c());
        let mut prev_max = f64::MIN;
        for _ in 0..50 {
            t = model.step(&t, &u);
            let m = t.iter().cloned().fold(f64::MIN, f64::max);
            assert!(
                m >= prev_max - 1e-9,
                "max temp must not decrease while heating"
            );
            prev_max = m;
        }
    }
}
