use protemp_floorplan::{niagara::niagara8, Block, BlockKind, Floorplan, Layer, Rect, Stack};
use protemp_thermal::{LayerConfig, RcNetwork, ThermalConfig, UNCORE_POWER_FRACTION};
use protemp_workload::CorePowerModel;
use serde::{Deserialize, Serialize};

/// Hardware description of the simulated platform — the *scenario* every
/// other crate is parameterized by: floorplan (or layered die stack),
/// thermal parameters, the DVFS envelope of the cores, per-core power
/// models, and per-node temperature caps.
///
/// The default is the paper's evaluation platform (Section 5): the 8-core
/// Niagara with `f_max` = 1 GHz and `p_max` = 4 W per core. Two further
/// scenarios ship built in: [`Platform::biglittle8`] (heterogeneous
/// big/little cores with distinct power models) and [`Platform::stacked3d`]
/// (a 3D processor–memory stack whose passive DRAM dies carry their own
/// 85 °C caps).
///
/// # Example
///
/// ```
/// use protemp_sim::Platform;
///
/// let p = Platform::niagara8();
/// assert_eq!(p.num_cores(), 8);
/// // The paper's quadratic power rule: p = p_max (f / f_max)².
/// assert!((p.core_power(0.5e9) - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Platform {
    /// Die floorplan (for stacks: the sink-nearest layer, kept for
    /// compatibility with single-layer consumers).
    pub floorplan: Floorplan,
    /// Thermal model parameters.
    pub thermal: ThermalConfig,
    /// Maximum core frequency, Hz.
    pub fmax_hz: f64,
    /// Core power at `f_max`, W (the homogeneous scalar; per-core models
    /// in [`Platform::core_models`] override it when present).
    pub pmax_w: f64,
    /// Power drawn by an idle (but not shut down) core, W.
    pub idle_power_w: f64,
    /// Layered die stack for 3D scenarios. `None` means the single-layer
    /// [`Platform::floorplan`] is the whole platform.
    #[serde(default)]
    pub stack: Option<Stack>,
    /// Per-core power models in core order. Empty means every core is the
    /// homogeneous `pmax_w` quadratic (the paper's model).
    #[serde(default)]
    pub core_models: Vec<CorePowerModel>,
    /// Per-node temperature caps beyond the global limit: block name →
    /// cap °C (e.g. memory dies capped at 85 °C). Empty on Niagara-8.
    #[serde(default)]
    pub node_caps: Vec<(String, f64)>,
}

impl Platform {
    /// The paper's Niagara-8 platform at 1 GHz / 4 W per core.
    pub fn niagara8() -> Self {
        Platform {
            floorplan: niagara8(),
            thermal: ThermalConfig::default(),
            fmax_hz: 1.0e9,
            pmax_w: 4.0,
            idle_power_w: 0.3,
            stack: None,
            core_models: Vec::new(),
            node_caps: Vec::new(),
        }
    }

    /// A heterogeneous big.LITTLE-style 8-core platform: four big cores
    /// (6 W peak dynamic, 0.3 W leakage, full 1 GHz clock) and four little
    /// cores (1.5 W, 0.05 W leakage, topping out at 750 MHz), flanked by
    /// L2 banks with a crossbar/IO strip on top.
    pub fn biglittle8() -> Self {
        const MM: f64 = 1e-3;
        let mut fp = Floorplan::new(12.0 * MM, 9.0 * MM);
        fp.push(Block::new(
            "L2_B",
            BlockKind::L2Cache,
            Rect::new(0.0, 0.0, 12.0 * MM, 3.0 * MM),
        ));
        fp.push(Block::new(
            "L2_ML",
            BlockKind::L2Cache,
            Rect::new(0.0, 3.0 * MM, 1.0 * MM, 3.0 * MM),
        ));
        for (i, x) in [1.0, 3.5, 6.0, 8.5].into_iter().enumerate() {
            fp.push(Block::new(
                format!("B{}", i + 1),
                BlockKind::Core,
                Rect::new(x * MM, 3.0 * MM, 2.5 * MM, 3.0 * MM),
            ));
        }
        fp.push(Block::new(
            "L2_MR",
            BlockKind::L2Cache,
            Rect::new(11.0 * MM, 3.0 * MM, 1.0 * MM, 3.0 * MM),
        ));
        for (i, x) in [0.0, 1.5, 3.0, 4.5].into_iter().enumerate() {
            fp.push(Block::new(
                format!("LC{}", i + 1),
                BlockKind::Core,
                Rect::new(x * MM, 6.0 * MM, 1.5 * MM, 3.0 * MM),
            ));
        }
        fp.push(Block::new(
            "XBAR",
            BlockKind::Crossbar,
            Rect::new(6.0 * MM, 6.0 * MM, 3.0 * MM, 3.0 * MM),
        ));
        fp.push(Block::new(
            "IO",
            BlockKind::Io,
            Rect::new(9.0 * MM, 6.0 * MM, 3.0 * MM, 3.0 * MM),
        ));
        let big = CorePowerModel::new(6.0, 0.3, 1.0);
        let little = CorePowerModel::new(1.5, 0.05, 0.75);
        Platform {
            floorplan: fp,
            thermal: ThermalConfig::default(),
            fmax_hz: 1.0e9,
            pmax_w: 6.0,
            idle_power_w: 0.3,
            stack: None,
            core_models: vec![big, big, big, big, little, little, little, little],
            node_caps: Vec::new(),
        }
    }

    /// A 3D processor–memory stack: a 4-core logic die on the heat sink
    /// with a thinned DRAM die bonded on top. The four memory stripes are
    /// passive heat sources capped at 85 °C (DRAM retention), tighter than
    /// the 100 °C core limit.
    pub fn stacked3d() -> Self {
        const MM: f64 = 1e-3;
        let mut cpu = Floorplan::new(8.0 * MM, 10.0 * MM);
        cpu.push(Block::new(
            "C1",
            BlockKind::Core,
            Rect::new(0.0, 0.0, 4.0 * MM, 4.0 * MM),
        ));
        cpu.push(Block::new(
            "C2",
            BlockKind::Core,
            Rect::new(4.0 * MM, 0.0, 4.0 * MM, 4.0 * MM),
        ));
        cpu.push(Block::new(
            "XBAR",
            BlockKind::Crossbar,
            Rect::new(0.0, 4.0 * MM, 8.0 * MM, 2.0 * MM),
        ));
        cpu.push(Block::new(
            "C3",
            BlockKind::Core,
            Rect::new(0.0, 6.0 * MM, 4.0 * MM, 4.0 * MM),
        ));
        cpu.push(Block::new(
            "C4",
            BlockKind::Core,
            Rect::new(4.0 * MM, 6.0 * MM, 4.0 * MM, 4.0 * MM),
        ));
        let mut mem = Floorplan::new(8.0 * MM, 10.0 * MM);
        for i in 0..4 {
            mem.push(Block::new(
                format!("M{}", i + 1),
                BlockKind::Memory,
                Rect::new(0.0, i as f64 * 2.5 * MM, 8.0 * MM, 2.5 * MM),
            ));
        }
        let stack = Stack::new(vec![Layer::new("cpu", cpu.clone()), Layer::new("mem", mem)]);
        Platform {
            floorplan: cpu,
            thermal: ThermalConfig {
                layers: vec![LayerConfig::memory_die()],
                ..ThermalConfig::default()
            },
            fmax_hz: 1.0e9,
            pmax_w: 4.0,
            idle_power_w: 0.3,
            stack: Some(stack),
            core_models: Vec::new(),
            node_caps: (1..=4).map(|i| (format!("M{i}"), 85.0)).collect(),
        }
    }

    /// Number of processing cores (across every layer for stacks).
    pub fn num_cores(&self) -> usize {
        match &self.stack {
            Some(s) => s.blocks().filter(|b| b.is_core()).count(),
            None => self.floorplan.cores().count(),
        }
    }

    /// A 64-bit identity of everything a *controller's* accumulated state
    /// depends on: core count and block count, the global clock and power
    /// scalars, every per-core power model, and the per-node caps. Two
    /// platforms with equal identities present the same control surface, so
    /// integrator state, gains, and commands carry over; a policy holding
    /// state keyed to one identity must reset when handed another (two
    /// same-width platforms — e.g. `niagara8` vs `biglittle8` — differ
    /// here even though their core *counts* match).
    pub fn identity(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.num_cores().hash(&mut h);
        self.num_blocks().hash(&mut h);
        self.fmax_hz.to_bits().hash(&mut h);
        self.pmax_w.to_bits().hash(&mut h);
        self.idle_power_w.to_bits().hash(&mut h);
        self.thermal.ambient_c.to_bits().hash(&mut h);
        for i in 0..self.num_cores() {
            let m = self.core_model(i);
            m.pmax_w.to_bits().hash(&mut h);
            m.leakage_w.to_bits().hash(&mut h);
            m.max_ratio.to_bits().hash(&mut h);
        }
        for (name, cap) in &self.node_caps {
            name.hash(&mut h);
            cap.to_bits().hash(&mut h);
        }
        h.finish()
    }

    /// Total number of thermal blocks (across every layer for stacks).
    pub fn num_blocks(&self) -> usize {
        match &self.stack {
            Some(s) => s.num_blocks(),
            None => self.floorplan.len(),
        }
    }

    /// Global block indices of the cores, in core order.
    pub fn core_block_indices(&self) -> Vec<usize> {
        match &self.stack {
            Some(s) => s.core_indices(),
            None => self.floorplan.core_indices(),
        }
    }

    /// Global block index of a named block, if present.
    pub fn block_index(&self, name: &str) -> Option<usize> {
        match &self.stack {
            Some(s) => s.index_of(name),
            None => self.floorplan.index_of(name),
        }
    }

    /// The power model of core `core` (core order): the entry of
    /// [`Platform::core_models`], or the homogeneous `pmax_w` quadratic
    /// when none is configured.
    pub fn core_model(&self, core: usize) -> CorePowerModel {
        self.core_models
            .get(core)
            .copied()
            .unwrap_or_else(|| CorePowerModel::homogeneous(self.pmax_w))
    }

    /// Highest reachable frequency of core `core`, Hz.
    pub fn core_fmax(&self, core: usize) -> f64 {
        self.fmax_hz * self.core_model(core).max_ratio
    }

    /// Peak busy power of core `core` (leakage + dynamic at its top
    /// frequency), W.
    pub fn core_peak_power(&self, core: usize) -> f64 {
        self.core_model(core).peak_power()
    }

    /// Dynamic power of a busy core at frequency `f_hz` (Equation (2)):
    /// `p = p_max · f²/f_max²`. The homogeneous rule — per-core models go
    /// through [`Platform::core_power_i`].
    pub fn core_power(&self, f_hz: f64) -> f64 {
        let r = (f_hz / self.fmax_hz).clamp(0.0, 1.0);
        self.pmax_w * r * r
    }

    /// Busy power of core `core` at frequency `f_hz`, W: that core's
    /// leakage plus its quadratic dynamic term, with the frequency clamped
    /// to the core's own reachable range.
    pub fn core_power_i(&self, core: usize, f_hz: f64) -> f64 {
        match self.core_models.get(core) {
            Some(m) => {
                let r = (f_hz / self.fmax_hz).clamp(0.0, m.max_ratio);
                m.busy_power(r)
            }
            None => self.core_power(f_hz),
        }
    }

    /// The quadratic power coefficient `q = p_max / f_max²` such that
    /// `p = q·f²` (used to build the convex models).
    pub fn power_coefficient(&self) -> f64 {
        self.pmax_w / (self.fmax_hz * self.fmax_hz)
    }

    /// Builds the thermal RC network for this platform, from its
    /// [`Stack`] or, when none is configured, from the one-layer stack of
    /// its floorplan. Heterogeneous core models re-size the uncore
    /// background budget to [`UNCORE_POWER_FRACTION`] of the *actual* total
    /// core peak power (the homogeneous path keeps the builder's default,
    /// which is the same number).
    ///
    /// # Panics
    ///
    /// Panics if the platform fails validation — call
    /// [`Platform::validate`] first on untrusted input.
    pub fn rc_network(&self) -> RcNetwork {
        let stack = self
            .stack
            .clone()
            .unwrap_or_else(|| Stack::single(self.floorplan.clone()));
        let mut net = RcNetwork::from_stack(&stack, &self.thermal);
        if !self.core_models.is_empty() {
            let total_peak: f64 = (0..self.num_cores()).map(|i| self.core_peak_power(i)).sum();
            net.set_uncore_power_budget(&stack, UNCORE_POWER_FRACTION * total_peak);
        }
        net
    }

    /// Per-node temperature caps resolved to global block indices:
    /// `(block_index, cap_c)` in the order configured.
    pub fn resolved_node_caps(&self) -> Vec<(usize, f64)> {
        self.node_caps
            .iter()
            .filter_map(|(name, cap)| self.block_index(name).map(|i| (i, *cap)))
            .collect()
    }

    /// Validates the platform description.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        match &self.stack {
            Some(s) => s.validate().map_err(|e| e.to_string())?,
            None => self.floorplan.validate().map_err(|e| e.to_string())?,
        }
        self.thermal.validate().map_err(|e| e.to_string())?;
        if !(self.fmax_hz > 0.0 && self.fmax_hz.is_finite()) {
            return Err(format!("fmax_hz must be positive, got {}", self.fmax_hz));
        }
        if !(self.pmax_w > 0.0 && self.pmax_w.is_finite()) {
            return Err(format!("pmax_w must be positive, got {}", self.pmax_w));
        }
        if !(self.idle_power_w >= 0.0 && self.idle_power_w <= self.pmax_w) {
            return Err(format!(
                "idle_power_w must be in [0, pmax], got {}",
                self.idle_power_w
            ));
        }
        if !self.core_models.is_empty() && self.core_models.len() != self.num_cores() {
            return Err(format!(
                "core_models has {} entries for {} cores",
                self.core_models.len(),
                self.num_cores()
            ));
        }
        for (i, m) in self.core_models.iter().enumerate() {
            m.validate().map_err(|e| format!("core_models[{i}]: {e}"))?;
        }
        for (name, cap) in &self.node_caps {
            if self.block_index(name).is_none() {
                return Err(format!("node_caps names unknown block `{name}`"));
            }
            if !(cap.is_finite() && *cap > self.thermal.ambient_c) {
                return Err(format!(
                    "node cap for `{name}` must exceed ambient {}, got {cap}",
                    self.thermal.ambient_c
                ));
            }
        }
        Ok(())
    }
}

impl Default for Platform {
    fn default() -> Self {
        Platform::niagara8()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_platform() {
        let p = Platform::default();
        p.validate().unwrap();
        assert_eq!(p.num_cores(), 8);
        assert_eq!(p.fmax_hz, 1.0e9);
        assert_eq!(p.pmax_w, 4.0);
        assert!(p.core_models.is_empty());
        assert!(p.node_caps.is_empty());
        assert!(p.stack.is_none());
    }

    #[test]
    fn power_rule_quadratic() {
        let p = Platform::niagara8();
        assert_eq!(p.core_power(1.0e9), 4.0);
        assert!((p.core_power(0.5e9) - 1.0).abs() < 1e-12);
        assert_eq!(p.core_power(0.0), 0.0);
        // Clamps above fmax.
        assert_eq!(p.core_power(2.0e9), 4.0);
        // q f² reproduces the same rule.
        let q = p.power_coefficient();
        assert!((q * 0.7e9 * 0.7e9 - p.core_power(0.7e9)).abs() < 1e-9);
    }

    #[test]
    fn homogeneous_per_core_power_matches_scalar() {
        let p = Platform::niagara8();
        for f in [0.0, 0.3e9, 0.7e9, 1.0e9] {
            for core in 0..8 {
                assert_eq!(p.core_power_i(core, f), p.core_power(f));
            }
        }
        assert_eq!(p.core_fmax(3), 1.0e9);
    }

    #[test]
    fn bad_platform_detected() {
        let mut p = Platform::niagara8();
        p.idle_power_w = 10.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn biglittle_is_heterogeneous() {
        let p = Platform::biglittle8();
        p.validate().unwrap();
        assert_eq!(p.num_cores(), 8);
        // Big cores reach the full clock, little cores 750 MHz.
        assert_eq!(p.core_fmax(0), 1.0e9);
        assert_eq!(p.core_fmax(4), 0.75e9);
        // Little cores draw far less at their peak.
        assert!(p.core_peak_power(4) < 0.25 * p.core_peak_power(0));
        // Leakage is a floor: zero frequency still draws the leakage.
        assert_eq!(p.core_power_i(0, 0.0), 0.3);
        // The network builds with the re-sized uncore budget.
        let net = p.rc_network();
        let total: f64 = net.uncore_power().iter().sum();
        let expected = UNCORE_POWER_FRACTION * (4.0 * 6.3 + 4.0 * (0.05 + 1.5 * 0.5625));
        assert!((total - expected).abs() < 1e-9, "{total} vs {expected}");
    }

    #[test]
    fn stacked3d_has_caps_and_vertical_coupling() {
        let p = Platform::stacked3d();
        p.validate().unwrap();
        assert_eq!(p.num_cores(), 4);
        assert_eq!(p.num_blocks(), 9);
        let caps = p.resolved_node_caps();
        assert_eq!(caps.len(), 4);
        assert!(caps.iter().all(|&(_, c)| c == 85.0));
        // Memory nodes are global indices 5..9 (after the 5 CPU blocks).
        assert_eq!(caps[0].0, 5);
        // Hot cores warm the memory die above them.
        let net = p.rc_network();
        let mut powers = vec![0.0; p.num_blocks()];
        for &i in &p.core_block_indices() {
            powers[i] = 4.0;
        }
        let t = net.steady_state(&powers).unwrap();
        assert!(t[5] > net.ambient_c() + 5.0, "memory heats: {:?}", &t[5..9]);
    }

    #[test]
    fn core_model_count_mismatch_rejected() {
        let mut p = Platform::niagara8();
        p.core_models = vec![CorePowerModel::homogeneous(4.0); 3];
        assert!(p.validate().is_err());
    }

    #[test]
    fn unknown_cap_name_rejected() {
        let mut p = Platform::niagara8();
        p.node_caps = vec![("NOPE".to_string(), 85.0)];
        assert!(p.validate().is_err());
    }
}
