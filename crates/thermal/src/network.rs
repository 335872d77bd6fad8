use protemp_floorplan::{adjacency, BlockKind, Floorplan, Stack};
use protemp_linalg::{Cholesky, Matrix};
use serde::{Deserialize, Serialize};

use crate::{Result, ThermalConfig, ThermalError};

/// Fraction of total core power drawn by the uncore blocks (paper Sec. 5:
/// "the power consumption of the other cores on the system is around 30% of
/// the power consumption of the processing cores").
pub const UNCORE_POWER_FRACTION: f64 = 0.30;

/// A lumped thermal RC network derived from a layered die stack (a
/// single-layer floorplan is the one-layer stack).
///
/// # Node layout
///
/// For a [`Stack`] with `N` blocks total and `N₀` blocks on the
/// sink-nearest layer the network has `N + N₀ + 1` nodes:
///
/// * nodes `0..N` — silicon, one per block in global stack order (heat is
///   injected here);
/// * nodes `N..N+N₀` — heat-spreader footprint under each base-layer block
///   (the spreader attaches to the bottom die);
/// * node `N+N₀` — the lumped heat sink, coupled to the fixed ambient.
///
/// A single-layer floorplan has `N₀ = N`, so `2N + 1` nodes.
///
/// The continuous dynamics are `C·Ṫ = −G·T + u`, where `G` is the
/// conductance Laplacian (with the ambient coupling on the sink diagonal),
/// `C` the nodal heat capacities and `u` collects injected power plus the
/// ambient source term. Temperatures are in °C throughout.
///
/// # Example
///
/// ```
/// use protemp_floorplan::niagara::niagara8;
/// use protemp_thermal::{RcNetwork, ThermalConfig};
///
/// let net = RcNetwork::from_floorplan(&niagara8(), &ThermalConfig::default());
/// assert_eq!(net.num_nodes(), 2 * 18 + 1);
/// assert_eq!(net.core_nodes().len(), 8);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RcNetwork {
    /// Conductance Laplacian, one row and column per node.
    g: Matrix,
    /// Nodal heat capacities, J/K.
    c: Vec<f64>,
    /// Per-node conductance to the fixed ambient (only the sink is nonzero).
    g_amb: Vec<f64>,
    /// Number of floorplan blocks N.
    n_blocks: usize,
    /// Silicon node indices of the processing cores.
    core_nodes: Vec<usize>,
    /// Fixed per-block background power for non-core blocks, W.
    uncore_power: Vec<f64>,
    /// Ambient temperature, °C.
    ambient_c: f64,
}

impl RcNetwork {
    /// Builds the RC network for a floorplan: [`RcNetwork::from_stack`] on
    /// the one-layer [`Stack::single`].
    ///
    /// # Panics
    ///
    /// Panics if the floorplan fails validation or the config is invalid —
    /// both indicate programmer error in the calling code.
    pub fn from_floorplan(fp: &Floorplan, cfg: &ThermalConfig) -> Self {
        Self::from_stack(&Stack::single(fp.clone()), cfg)
    }

    /// Builds the RC network for a layered die [`Stack`].
    ///
    /// Every block of every layer gets a silicon node (global stack block
    /// order); the heat spreader attaches under the base layer only. Within
    /// a layer, lateral conductances follow shared edges, using that
    /// layer's material parameters ([`ThermalConfig::layer_params`]; layer
    /// 0 takes the config's silicon fields). Consecutive layers couple
    /// through their footprint overlap: half of each die's through-thickness
    /// resistance in series with the upper layer's bond interface.
    ///
    /// Uncore background power is sized as [`UNCORE_POWER_FRACTION`] of the
    /// total core budget at 4 W per core and spread over non-core blocks
    /// proportionally to area; use [`RcNetwork::set_uncore_power_budget`] to
    /// change it.
    ///
    /// # Panics
    ///
    /// Panics if the stack fails validation or the config is invalid —
    /// both indicate programmer error in the calling code.
    pub fn from_stack(stack: &Stack, cfg: &ThermalConfig) -> Self {
        stack.validate().expect("stack must validate");
        cfg.validate().expect("thermal config must validate");

        let n = stack.num_blocks();
        let base = stack.layers()[0].plan();
        let n0 = base.len();
        let total = n + n0 + 1;
        let sink = n + n0;
        let mut g = Matrix::zeros(total, total);
        let mut c = vec![0.0; total];
        let mut g_amb = vec![0.0; total];

        // Capacities: each die uses its own layer material; the spreader
        // footprint exists only under the base die.
        for (li, layer) in stack.layers().iter().enumerate() {
            let lp = cfg.layer_params(li);
            let off = stack.block_offset(li);
            for (i, b) in layer.plan().blocks().iter().enumerate() {
                c[off + i] = lp.cv * b.area() * lp.thickness;
            }
        }
        for (i, b) in base.blocks().iter().enumerate() {
            c[n + i] = cfg.cv_cu * b.area() * cfg.t_spreader;
        }
        c[sink] = cfg.sink_capacitance;

        let couple = |g: &mut Matrix, a: usize, b: usize, cond: f64| {
            g[(a, a)] += cond;
            g[(b, b)] += cond;
            g[(a, b)] -= cond;
            g[(b, a)] -= cond;
        };

        // Lateral conductances per layer; the spreader layer mirrors the
        // base die's adjacency.
        for (li, layer) in stack.layers().iter().enumerate() {
            let lp = cfg.layer_params(li);
            let off = stack.block_offset(li);
            for adj in adjacency::adjacencies(layer.plan()) {
                let g_die = lp.k * lp.thickness * adj.shared_edge / adj.center_distance;
                couple(&mut g, off + adj.a, off + adj.b, g_die);
                if li == 0 {
                    let g_sp = cfg.k_cu * cfg.t_spreader * adj.shared_edge / adj.center_distance;
                    couple(&mut g, n + adj.a, n + adj.b, g_sp);
                }
            }
        }

        // Vertical paths under the base die: silicon → spreader (TIM),
        // spreader → sink.
        for (i, b) in base.blocks().iter().enumerate() {
            let g_tim = cfg.tim_conductance_per_area() * b.area();
            couple(&mut g, i, n + i, g_tim);
            let g_ss = cfg.spreader_sink_conductance_per_area() * b.area();
            couple(&mut g, n + i, sink, g_ss);
        }

        // Inter-die coupling through footprint overlap: half of each die's
        // through-thickness resistance plus the bond interface in series.
        for v in stack.vertical_adjacencies() {
            let lo = cfg.layer_params(v.lower_layer);
            let hi = cfg.layer_params(v.lower_layer + 1);
            let r_per_area =
                0.5 * lo.thickness / lo.k + hi.t_bond / hi.k_bond + 0.5 * hi.thickness / hi.k;
            couple(&mut g, v.lower, v.upper, v.overlap_area / r_per_area);
        }

        // Sink → ambient convection.
        let g_conv = 1.0 / cfg.r_convection;
        g[(sink, sink)] += g_conv;
        g_amb[sink] = g_conv;

        let core_nodes = stack.core_indices();
        let mut net = RcNetwork {
            g,
            c,
            g_amb,
            n_blocks: n,
            core_nodes,
            uncore_power: vec![0.0; n],
            ambient_c: cfg.ambient_c,
        };
        let core_budget: f64 = 4.0 * net.core_nodes.len() as f64;
        net.set_uncore_power_budget(stack, UNCORE_POWER_FRACTION * core_budget);
        net
    }

    /// Re-sizes the uncore background power budget (W, spread by area over
    /// every non-core block of every layer).
    pub fn set_uncore_power_budget(&mut self, stack: &Stack, budget: f64) {
        let uncore_area: f64 = stack
            .blocks()
            .filter(|b| !b.is_core())
            .map(|b| b.area())
            .sum();
        for (i, b) in stack.blocks().enumerate() {
            self.uncore_power[i] = if b.is_core() || uncore_area == 0.0 {
                0.0
            } else {
                // Crossbar and IO run hotter per area than cache.
                let weight = match b.kind() {
                    BlockKind::Crossbar => 2.0,
                    BlockKind::Io => 1.5,
                    _ => 1.0,
                };
                budget * weight * b.area() / uncore_area
            };
        }
        // Normalize so the weighted split still sums to the budget.
        let s: f64 = self.uncore_power.iter().sum();
        if s > 0.0 {
            for p in &mut self.uncore_power {
                *p *= budget / s;
            }
        }
    }

    /// Total number of thermal nodes (`N + N₀ + 1`, see the node layout).
    pub fn num_nodes(&self) -> usize {
        self.c.len()
    }

    /// Number of floorplan blocks `N`.
    pub fn num_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Silicon node indices of the processing cores.
    pub fn core_nodes(&self) -> &[usize] {
        &self.core_nodes
    }

    /// Ambient temperature, °C.
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    /// Conductance Laplacian (including ambient coupling on the diagonal).
    pub fn conductance(&self) -> &Matrix {
        &self.g
    }

    /// Nodal heat capacities, J/K.
    pub fn capacitance(&self) -> &[f64] {
        &self.c
    }

    /// Fixed background power for every block (zero on cores), W.
    pub fn uncore_power(&self) -> &[f64] {
        &self.uncore_power
    }

    /// Builds the full nodal input vector `u` from per-block powers.
    ///
    /// `block_powers[i]` is the power injected in block `i`'s silicon node;
    /// the ambient source term is added on the sink node.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::DimensionMismatch`] if the slice length is not
    /// the number of blocks.
    pub fn input_vector(&self, block_powers: &[f64]) -> Result<Vec<f64>> {
        let mut u = vec![0.0; self.num_nodes()];
        self.input_into(block_powers, &mut u)?;
        Ok(u)
    }

    /// [`RcNetwork::input_vector`] written into `u` without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::DimensionMismatch`] if `block_powers` does
    /// not have one entry per block.
    ///
    /// # Panics
    ///
    /// Panics if `u` does not have one entry per node.
    pub(crate) fn input_into(&self, block_powers: &[f64], u: &mut [f64]) -> Result<()> {
        if block_powers.len() != self.n_blocks {
            return Err(ThermalError::DimensionMismatch {
                what: "block power vector",
                expected: self.n_blocks,
                actual: block_powers.len(),
            });
        }
        assert_eq!(u.len(), self.num_nodes(), "input vector length mismatch");
        let (blocks, rest) = u.split_at_mut(self.n_blocks);
        blocks.copy_from_slice(block_powers);
        rest.fill(0.0);
        for (ui, ga) in u.iter_mut().zip(&self.g_amb) {
            *ui += ga * self.ambient_c;
        }
        Ok(())
    }

    /// Per-block power vector with every core at `core_power` W and uncore
    /// blocks at their fixed background power.
    pub fn full_power_vector(&self, core_power: f64) -> Vec<f64> {
        let mut p = self.uncore_power.clone();
        for &i in &self.core_nodes {
            p[i] = core_power;
        }
        p
    }

    /// Steady-state node temperatures for constant per-block powers.
    ///
    /// Solves `G·T = u`.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::DimensionMismatch`] for a bad power vector.
    /// * [`ThermalError::Linalg`] if the conductance matrix is not positive
    ///   definite (cannot happen for a connected network with ambient
    ///   coupling: it is a grounded Laplacian, hence SPD).
    pub fn steady_state(&self, block_powers: &[f64]) -> Result<Vec<f64>> {
        let u = self.input_vector(block_powers)?;
        let ch = Cholesky::factor(&self.g)?;
        Ok(ch.solve(&u))
    }

    /// The system matrix `M = C⁻¹·G` of the dynamics `Ṫ = −M·T + C⁻¹·u`.
    pub fn system_matrix(&self) -> Matrix {
        let n = self.num_nodes();
        Matrix::from_fn(n, n, |r, c| self.g[(r, c)] / self.c[r])
    }

    /// Uniform temperature vector (all nodes at `t`).
    pub fn uniform_state(&self, t: f64) -> Vec<f64> {
        vec![t; self.num_nodes()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protemp_floorplan::niagara::niagara8;
    use protemp_linalg::vecops;

    fn net() -> RcNetwork {
        RcNetwork::from_floorplan(&niagara8(), &ThermalConfig::default())
    }

    #[test]
    fn laplacian_row_sums_are_ambient_couplings() {
        let net = net();
        // For a Laplacian with ambient coupling folded into the diagonal,
        // each row sums to that node's conductance to ambient.
        let g = net.conductance();
        for r in 0..net.num_nodes() {
            let s: f64 = (0..net.num_nodes()).map(|c| g[(r, c)]).sum();
            let expected = net.g_amb[r];
            assert!(
                (s - expected).abs() < 1e-9,
                "row {r} sums to {s}, expected {expected}"
            );
        }
    }

    #[test]
    fn conductance_symmetric() {
        let net = net();
        assert!(net.conductance().is_symmetric(1e-12));
    }

    #[test]
    fn zero_power_steady_state_is_ambient() {
        let net = net();
        let t = net.steady_state(&vec![0.0; net.num_blocks()]).unwrap();
        for (i, ti) in t.iter().enumerate() {
            assert!(
                (ti - net.ambient_c()).abs() < 1e-6,
                "node {i} at {ti}, ambient {}",
                net.ambient_c()
            );
        }
    }

    #[test]
    fn full_power_steady_state_is_hot() {
        let net = net();
        let t = net.steady_state(&net.full_power_vector(4.0)).unwrap();
        let core_max = net
            .core_nodes()
            .iter()
            .map(|&i| t[i])
            .fold(f64::MIN, f64::max);
        assert!(core_max > 105.0, "full-power cores reach {core_max:.1} C");
        assert!(core_max < 200.0, "calibration sane, got {core_max:.1} C");
    }

    #[test]
    fn more_power_means_warmer_everywhere() {
        let net = net();
        let lo = net.steady_state(&net.full_power_vector(1.0)).unwrap();
        let hi = net.steady_state(&net.full_power_vector(3.0)).unwrap();
        for (l, h) in lo.iter().zip(&hi) {
            assert!(*h >= l - 1e-9);
        }
    }

    #[test]
    fn uncore_budget_is_30_percent() {
        let net = net();
        let total: f64 = vecops::sum(net.uncore_power());
        assert!((total - 0.3 * 32.0).abs() < 1e-9);
        for &i in net.core_nodes() {
            assert_eq!(net.uncore_power()[i], 0.0);
        }
    }

    #[test]
    fn input_vector_checks_length() {
        let net = net();
        assert!(net.input_vector(&[0.0]).is_err());
    }

    #[test]
    fn steady_state_cholesky_matches_lu() {
        // The SPD fast path must agree with a general LU solve of the same
        // grounded-Laplacian system to tight tolerance.
        let net = net();
        for power in [0.5, 2.0, 4.0] {
            let p = net.full_power_vector(power);
            let chol = net.steady_state(&p).unwrap();
            let u = net.input_vector(&p).unwrap();
            let lu = protemp_linalg::Lu::factor(net.conductance()).unwrap();
            let gold = lu.solve(&u).unwrap();
            for (a, b) in chol.iter().zip(&gold) {
                assert!(
                    (a - b).abs() < 1e-8 * b.abs().max(1.0),
                    "cholesky {a} vs lu {b} at {power} W"
                );
            }
        }
    }

    #[test]
    fn stacked_network_couples_layers_and_stays_spd() {
        use protemp_floorplan::{Block, BlockKind, Layer, Rect, Stack};
        let mut cpu = Floorplan::new(4e-3, 4e-3);
        cpu.push(Block::new(
            "C1",
            BlockKind::Core,
            Rect::new(0.0, 0.0, 4e-3, 4e-3),
        ));
        let mut mem = Floorplan::new(4e-3, 4e-3);
        mem.push(Block::new(
            "M1",
            BlockKind::Memory,
            Rect::new(0.0, 0.0, 4e-3, 4e-3),
        ));
        let stack = Stack::new(vec![Layer::new("cpu", cpu), Layer::new("mem", mem)]);
        let cfg = ThermalConfig {
            layers: vec![crate::LayerConfig::memory_die()],
            ..ThermalConfig::default()
        };
        let net = RcNetwork::from_stack(&stack, &cfg);
        // 2 silicon nodes + 1 spreader (base layer only) + sink.
        assert_eq!(net.num_nodes(), 4);
        assert_eq!(net.core_nodes(), &[0]);
        assert!(net.conductance().is_symmetric(1e-12));
        // Heating the core warms the memory die above it through the
        // inter-layer bond.
        let t = net.steady_state(&[4.0, 0.0]).unwrap();
        assert!(t[1] > net.ambient_c() + 1.0, "memory die heats up: {t:?}");
        // And the memory die sits *above* (further from the sink than) the
        // spreader, so it runs hotter than the spreader node.
        assert!(t[1] > t[2], "memory above spreader: {t:?}");
    }

    #[test]
    fn edge_core_cooler_than_middle_core_at_equal_power() {
        let net = net();
        let fp = niagara8();
        let t = net.steady_state(&net.full_power_vector(4.0)).unwrap();
        let p1 = t[fp.index_of("P1").unwrap()];
        let p2 = t[fp.index_of("P2").unwrap()];
        assert!(
            p1 < p2,
            "edge core P1 ({p1:.2} C) should run cooler than middle core P2 ({p2:.2} C)"
        );
    }
}
