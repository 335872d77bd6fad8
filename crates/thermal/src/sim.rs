use crate::{DiscreteModel, IntegrationMethod, RcNetwork, Result};

/// A stateful thermal simulation: owns the network, the discrete model and
/// the current temperature state.
///
/// The multi-core simulator drives one `ThermalSim` per run, feeding it
/// per-block power values every time step. A step allocates nothing: the
/// nodal input and the next state live in buffers sized at construction.
///
/// # Example
///
/// ```
/// use protemp_floorplan::niagara::niagara8;
/// use protemp_thermal::{ThermalConfig, ThermalSim};
///
/// let mut sim = ThermalSim::new(&niagara8(), &ThermalConfig::default(), 0.4e-3).unwrap();
/// let p = sim.network().full_power_vector(4.0);
/// for _ in 0..250 {
///     sim.step(&p).unwrap();
/// }
/// assert!(sim.max_core_temp() > sim.network().ambient_c());
/// ```
#[derive(Debug, Clone)]
pub struct ThermalSim {
    net: RcNetwork,
    model: DiscreteModel,
    state: Vec<f64>,
    /// Nodal input vector, rebuilt in place every step.
    input: Vec<f64>,
    /// Next-state buffer, swapped with `state` after every step.
    next: Vec<f64>,
    time_s: f64,
}

impl ThermalSim {
    /// Creates a simulation with all nodes at ambient, using forward Euler
    /// (the paper's integrator) at step `dt`.
    ///
    /// # Errors
    ///
    /// Propagates model construction failures (e.g. an unstable `dt`).
    pub fn new(
        fp: &protemp_floorplan::Floorplan,
        cfg: &crate::ThermalConfig,
        dt: f64,
    ) -> Result<Self> {
        let net = RcNetwork::from_floorplan(fp, cfg);
        let model = DiscreteModel::new(&net, dt, IntegrationMethod::ForwardEuler)?;
        let initial = net.uniform_state(net.ambient_c());
        Ok(ThermalSim::from_parts(net, model, initial))
    }

    /// Creates a simulation from pre-built parts.
    ///
    /// # Panics
    ///
    /// Panics if the model or `initial` does not match the network's node
    /// count.
    pub fn from_parts(net: RcNetwork, model: DiscreteModel, initial: Vec<f64>) -> Self {
        let n = net.num_nodes();
        assert_eq!(model.num_nodes(), n, "model node count");
        assert_eq!(initial.len(), n, "initial state length");
        ThermalSim {
            net,
            model,
            state: initial,
            input: vec![0.0; n],
            next: vec![0.0; n],
            time_s: 0.0,
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &RcNetwork {
        &self.net
    }

    /// The underlying discrete model.
    pub fn model(&self) -> &DiscreteModel {
        &self.model
    }

    /// Current node temperatures.
    pub fn state(&self) -> &[f64] {
        &self.state
    }

    /// Elapsed simulated time in seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Resets all nodes to `t` and the clock to zero.
    pub fn reset(&mut self, t: f64) {
        self.state = self.net.uniform_state(t);
        self.time_s = 0.0;
    }

    /// Advances one step with the given per-block powers.
    ///
    /// # Errors
    ///
    /// Returns a dimension error if `block_powers` has the wrong length.
    pub fn step(&mut self, block_powers: &[f64]) -> Result<()> {
        self.net.input_into(block_powers, &mut self.input)?;
        self.model
            .step_into(&self.state, &self.input, &mut self.next);
        std::mem::swap(&mut self.state, &mut self.next);
        self.time_s += self.model.dt();
        Ok(())
    }

    /// Current temperatures of the core silicon nodes, in core order.
    pub fn core_temps(&self) -> Vec<f64> {
        self.net
            .core_nodes()
            .iter()
            .map(|&i| self.state[i])
            .collect()
    }

    /// Maximum core temperature.
    pub fn max_core_temp(&self) -> f64 {
        self.core_temps().into_iter().fold(f64::MIN, f64::max)
    }

    /// Spatial gradient across cores: max − min core temperature.
    pub fn core_gradient(&self) -> f64 {
        let t = self.core_temps();
        let mx = t.iter().cloned().fold(f64::MIN, f64::max);
        let mn = t.iter().cloned().fold(f64::MAX, f64::min);
        mx - mn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThermalConfig;
    use protemp_floorplan::niagara::niagara8;

    #[test]
    fn heats_under_power_and_cools_without() {
        let mut sim = ThermalSim::new(&niagara8(), &ThermalConfig::default(), 0.4e-3).unwrap();
        let hot = sim.network().full_power_vector(4.0);
        let cold = vec![0.0; sim.network().num_blocks()];
        for _ in 0..2500 {
            sim.step(&hot).unwrap();
        }
        let peak = sim.max_core_temp();
        assert!(
            peak > 60.0,
            "1 s of full power heats well above ambient, got {peak:.1}"
        );
        for _ in 0..2500 {
            sim.step(&cold).unwrap();
        }
        assert!(sim.max_core_temp() < peak, "cooling reduces temperature");
        assert!((sim.time_s() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn reset_restores_uniform_state() {
        let mut sim = ThermalSim::new(&niagara8(), &ThermalConfig::default(), 0.4e-3).unwrap();
        let p = sim.network().full_power_vector(4.0);
        sim.step(&p).unwrap();
        sim.reset(55.0);
        assert!(sim.state().iter().all(|&t| (t - 55.0).abs() < 1e-12));
        assert_eq!(sim.time_s(), 0.0);
        assert_eq!(sim.core_gradient(), 0.0);
    }

    #[test]
    fn core_temps_exceed_cache_temps_under_load() {
        let mut sim = ThermalSim::new(&niagara8(), &ThermalConfig::default(), 0.4e-3).unwrap();
        let p = sim.network().full_power_vector(4.0);
        for _ in 0..5000 {
            sim.step(&p).unwrap();
        }
        let fp = niagara8();
        let core_min = sim.core_temps().into_iter().fold(f64::MAX, f64::min);
        let cache = sim.state()[fp.index_of("L2_B0").unwrap()];
        assert!(
            core_min > cache,
            "cores ({core_min:.1}) should be hotter than cache ({cache:.1})"
        );
    }
}
