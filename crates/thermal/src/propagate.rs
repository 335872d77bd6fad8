use protemp_linalg::Matrix;

use crate::discrete::StepKernel;
use crate::{DiscreteModel, RcNetwork, Result, ThermalError};

/// Affine reachability of watched temperatures from per-core powers.
///
/// For the discrete dynamics `T_{k+1} = A·T_k + B·u` with
/// `u = S·p + u_fixed` (where `S` scatters the `n_c` core powers into the
/// nodal input vector and `u_fixed` holds uncore power and the ambient source
/// term), every step's watched temperatures are affine in `p`:
///
/// ```text
/// T_k[watch] = H_k · p + o_k(t0)
/// ```
///
/// `H_k` depends only on the dynamics, so a [`AffineReach`] is built once
/// per platform and reused for every starting temperature; [`offsets`]
/// recomputes the `o_k` for a given initial state. This is the machinery
/// that turns the paper's optimization model (3) — thousands of thermal
/// equality constraints over 250 time steps — into a compact convex program
/// in just the frequency and power variables.
///
/// [`offsets`]: AffineReach::offsets
///
/// # Example
///
/// ```
/// use protemp_floorplan::niagara::niagara8;
/// use protemp_thermal::{AffineReach, DiscreteModel, IntegrationMethod, RcNetwork, ThermalConfig};
///
/// let net = RcNetwork::from_floorplan(&niagara8(), &ThermalConfig::default());
/// let model = DiscreteModel::new(&net, 0.4e-3, IntegrationMethod::ForwardEuler).unwrap();
/// let reach = AffineReach::new(&net, &model, 250).unwrap();
/// let offs = reach.offsets(&net.uniform_state(60.0));
/// // Prediction for zero core power equals the offset trajectory.
/// assert_eq!(offs.len(), 250);
/// ```
#[derive(Debug, Clone)]
pub struct AffineReach {
    /// `H_k` for `k = 1..=m`: watched rows × core-power columns.
    h: Vec<Matrix>,
    /// Watched node indices (silicon core nodes by default).
    watch: Vec<usize>,
    /// The model's nonzero-only step, which propagates the offsets.
    kernel: StepKernel,
    /// Nodal input at zero core power: uncore power plus ambient.
    u_fixed: Vec<f64>,
    /// Number of steps `m`.
    steps: usize,
}

impl AffineReach {
    /// Builds the reachability operator watching the core silicon nodes
    /// over `steps` steps, with uncore power and ambient as the fixed input.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::DimensionMismatch`] if the model and network
    /// disagree on node count.
    pub fn new(net: &RcNetwork, model: &DiscreteModel, steps: usize) -> Result<Self> {
        Self::with_watch(net, model, steps, net.core_nodes().to_vec())
    }

    /// Builds the reachability operator watching arbitrary node indices.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::DimensionMismatch`] if the model and network
    /// disagree on node count, or a watch index is out of range.
    pub fn with_watch(
        net: &RcNetwork,
        model: &DiscreteModel,
        steps: usize,
        watch: Vec<usize>,
    ) -> Result<Self> {
        let n = net.num_nodes();
        if model.num_nodes() != n {
            return Err(ThermalError::DimensionMismatch {
                what: "discrete model",
                expected: n,
                actual: model.num_nodes(),
            });
        }
        if let Some(&bad) = watch.iter().find(|&&w| w >= n) {
            return Err(ThermalError::DimensionMismatch {
                what: "watch index",
                expected: n,
                actual: bad,
            });
        }
        let cores = net.core_nodes();
        let nc = cores.len();

        // Fixed input: uncore power only (cores contribute through p).
        let u_fixed = net.input_vector(net.uncore_power())?;

        // Column j of B_s: response of the input matrix to 1 W on core j.
        let mut bs = Matrix::zeros(n, nc);
        for (j, &core) in cores.iter().enumerate() {
            for r in 0..n {
                bs[(r, j)] = model.b()[(r, core)];
            }
        }

        // Propagate the full-state sensitivity F_k (n × nc):
        // F_1 = B_s ; F_{k+1} = A·F_k + B_s.
        let mut f = bs.clone();
        let mut h = Vec::with_capacity(steps);
        h.push(f.select_rows(&watch));
        for _ in 1..steps {
            let mut next = model.a().matmul(&f)?;
            next.axpy(1.0, &bs)?;
            h.push(next.select_rows(&watch));
            f = next;
        }

        Ok(AffineReach {
            h,
            watch,
            kernel: model.kernel().clone(),
            u_fixed,
            steps,
        })
    }

    /// Number of steps `m`.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Watched node indices.
    pub fn watch(&self) -> &[usize] {
        &self.watch
    }

    /// The power-sensitivity matrices `H_k`, one per step `k = 1..=m`.
    pub fn sensitivities(&self) -> &[Matrix] {
        &self.h
    }

    /// Computes the zero-core-power offset trajectories `o_k(t0)` for the
    /// watched nodes, one vector per step `k = 1..=m`, by stepping the
    /// model from `t0` under the fixed input.
    ///
    /// # Panics
    ///
    /// Panics if `t0` has the wrong length.
    pub fn offsets(&self, t0: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(t0.len(), self.u_fixed.len(), "t0 length mismatch");
        let mut state = t0.to_vec();
        let mut next = vec![0.0; state.len()];
        let mut out = Vec::with_capacity(self.steps);
        for _ in 0..self.steps {
            self.kernel.step_into(&state, &self.u_fixed, &mut next);
            out.push(self.watch.iter().map(|&w| next[w]).collect());
            std::mem::swap(&mut state, &mut next);
        }
        out
    }

    /// Predicts the watched temperatures at step `k` (1-based) for core
    /// powers `p`, given precomputed offsets.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or `p` has the wrong length.
    pub fn predict(&self, k: usize, p: &[f64], offsets: &[Vec<f64>]) -> Vec<f64> {
        assert!(k >= 1 && k <= self.steps, "step {k} out of range");
        let hp = self.h[k - 1].matvec(p);
        hp.iter().zip(&offsets[k - 1]).map(|(a, b)| a + b).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IntegrationMethod, ThermalConfig};
    use protemp_floorplan::{niagara::niagara8, Stack};

    fn setup() -> (RcNetwork, DiscreteModel) {
        let net = RcNetwork::from_floorplan(&niagara8(), &ThermalConfig::default());
        let model = DiscreteModel::new(&net, 0.4e-3, IntegrationMethod::ForwardEuler).unwrap();
        (net, model)
    }

    #[test]
    fn prediction_matches_simulation() {
        let (net, model) = setup();
        let steps = 50;
        let reach = AffineReach::new(&net, &model, steps).unwrap();
        let t0 = net.uniform_state(70.0);
        let offs = reach.offsets(&t0);

        // Simulate directly with cores at mixed powers.
        let p_cores = [4.0, 2.0, 1.0, 0.5, 3.0, 0.0, 2.5, 4.0];
        let mut blocks = net.uncore_power().to_vec();
        for (j, &c) in net.core_nodes().iter().enumerate() {
            blocks[c] = p_cores[j];
        }
        let u = net.input_vector(&blocks).unwrap();
        let mut t = t0.clone();
        for k in 1..=steps {
            t = model.step(&t, &u);
            let pred = reach.predict(k, &p_cores, &offs);
            for (j, &core) in net.core_nodes().iter().enumerate() {
                assert!(
                    (pred[j] - t[core]).abs() < 1e-9,
                    "step {k} core {j}: pred {} vs sim {}",
                    pred[j],
                    t[core]
                );
            }
        }
    }

    #[test]
    fn offsets_are_pure_cooling_when_uncore_zero() {
        let (mut net, _) = setup();
        net.set_uncore_power_budget(&Stack::single(niagara8()), 0.0);
        let model = DiscreteModel::new(&net, 0.4e-3, IntegrationMethod::ForwardEuler).unwrap();
        let reach = AffineReach::new(&net, &model, 30).unwrap();
        let offs = reach.offsets(&net.uniform_state(90.0));
        // With zero power everywhere, temperatures can only fall toward ambient.
        let first = &offs[0];
        let last = &offs[29];
        for (f, l) in first.iter().zip(last) {
            assert!(*l <= f + 1e-12);
        }
    }

    #[test]
    fn sensitivities_are_nonnegative_and_grow() {
        let (net, model) = setup();
        let reach = AffineReach::new(&net, &model, 100).unwrap();
        let h1 = &reach.sensitivities()[0];
        let h100 = &reach.sensitivities()[99];
        for r in 0..h1.rows() {
            for c in 0..h1.cols() {
                assert!(h1[(r, c)] >= -1e-12, "sensitivity must be non-negative");
                assert!(
                    h100[(r, c)] >= h1[(r, c)] - 1e-12,
                    "sensitivity grows with horizon"
                );
            }
        }
    }

    #[test]
    fn bad_watch_index_rejected() {
        let (net, model) = setup();
        let r = AffineReach::with_watch(&net, &model, 10, vec![9999]);
        assert!(r.is_err());
    }
}
