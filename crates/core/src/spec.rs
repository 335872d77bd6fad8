use serde::{Deserialize, Serialize};

use crate::{ProTempError, Result};

/// Whether all cores share one frequency or each core gets its own.
///
/// The paper's Section 5.3 compares both: variable assignments exploit the
/// floorplan's thermal asymmetry (edge cores next to cool caches can run
/// faster) and support a strictly higher workload at the same temperature
/// limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FreqMode {
    /// All cores run at the same frequency (simpler clocking, as in Cell
    /// and Niagara).
    Uniform,
    /// Each core gets its own frequency (the Pro-Temp default).
    Variable,
}

impl std::fmt::Display for FreqMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FreqMode::Uniform => "uniform",
            FreqMode::Variable => "variable",
        })
    }
}

/// Configuration of the Pro-Temp controller and its convex models.
///
/// Defaults are the paper's experimental values: 100 ms DFS windows solved
/// at 0.4 ms steps against a 100 °C limit, with the spatial-gradient term
/// enabled (objective (5)).
///
/// # Example
///
/// ```
/// use protemp::ControlConfig;
///
/// let cfg = ControlConfig::default();
/// assert_eq!(cfg.steps_per_window(), 250);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlConfig {
    /// DFS period, µs (paper: 100 ms).
    pub dfs_period_us: u64,
    /// Thermal-model step for the constraint horizon, µs (paper: 0.4 ms).
    pub dt_us: u64,
    /// Maximum allowed temperature, °C (paper: 100).
    pub tmax_c: f64,
    /// Safety margin subtracted from `tmax_c` in the offline models, °C.
    ///
    /// Covers the paper's single-starting-temperature simplification
    /// (Section 3.2): at run time only the *maximum* core temperature keys
    /// the table, so the offline model assumes every node starts there.
    pub margin_c: f64,
    /// Weight of the thermal-gradient term in objective (5); 0 disables
    /// gradient minimization (pure model (3)).
    pub tgrad_weight: f64,
    /// Keep every `stride`-th time step in the pairwise gradient
    /// constraints (Equation (4)); 1 = all steps. Temperature limits are
    /// always enforced at every step regardless.
    pub gradient_stride: usize,
    /// Uniform or per-core frequency assignment.
    pub mode: FreqMode,
    /// Retired: selected a modal-truncation order, a reduction that no
    /// longer exists. Every design point solves the full model. The field
    /// stays because the context fingerprint hashes this struct's `Debug`
    /// form; [`validate`] rejects anything but `None`.
    ///
    /// [`validate`]: ControlConfig::validate
    pub modal_order: Option<usize>,
    /// Retired: selected modal truncation by time constant, like
    /// [`modal_order`]. [`validate`] rejects anything but `None`.
    ///
    /// [`modal_order`]: ControlConfig::modal_order
    /// [`validate`]: ControlConfig::validate
    pub modal_tol: Option<f64>,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            dfs_period_us: 100_000,
            dt_us: 400,
            tmax_c: 100.0,
            margin_c: 0.5,
            tgrad_weight: 1.0,
            gradient_stride: 5,
            mode: FreqMode::Variable,
            modal_order: None,
            modal_tol: None,
        }
    }
}

impl ControlConfig {
    /// Number of thermal time steps per DFS window (the paper's `m`).
    pub fn steps_per_window(&self) -> usize {
        (self.dfs_period_us / self.dt_us) as usize
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ProTempError::BadConfig`] for inconsistent values.
    pub fn validate(&self) -> Result<()> {
        if self.dt_us == 0 || self.dfs_period_us == 0 {
            return Err(ProTempError::BadConfig {
                reason: "dt_us and dfs_period_us must be positive".to_string(),
            });
        }
        if !self.dfs_period_us.is_multiple_of(self.dt_us) {
            return Err(ProTempError::BadConfig {
                reason: format!(
                    "dfs_period_us ({}) must be a multiple of dt_us ({})",
                    self.dfs_period_us, self.dt_us
                ),
            });
        }
        if !(self.tmax_c.is_finite() && self.tmax_c > 0.0) {
            return Err(ProTempError::BadConfig {
                reason: format!("tmax_c must be positive, got {}", self.tmax_c),
            });
        }
        if !(self.margin_c >= 0.0 && self.margin_c < self.tmax_c) {
            return Err(ProTempError::BadConfig {
                reason: format!("margin_c {} out of range", self.margin_c),
            });
        }
        if !(self.tgrad_weight.is_finite() && self.tgrad_weight >= 0.0) {
            return Err(ProTempError::BadConfig {
                reason: format!(
                    "tgrad_weight must be finite and non-negative, got {}",
                    self.tgrad_weight
                ),
            });
        }
        if self.gradient_stride == 0 {
            return Err(ProTempError::BadConfig {
                reason: "gradient_stride must be at least 1".to_string(),
            });
        }
        if self.modal_order.is_some() || self.modal_tol.is_some() {
            return Err(ProTempError::BadConfig {
                reason: "modal_order and modal_tol are retired and must be None".to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = ControlConfig::default();
        c.validate().unwrap();
        assert_eq!(c.steps_per_window(), 250); // 100 ms / 0.4 ms
        assert_eq!(c.tmax_c, 100.0);
        assert_eq!(c.mode, FreqMode::Variable);
    }

    #[test]
    fn bad_configs_rejected() {
        let c = ControlConfig {
            dt_us: 333,
            ..ControlConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ControlConfig {
            margin_c: -1.0,
            ..ControlConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ControlConfig {
            gradient_stride: 0,
            ..ControlConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn modal_knobs_validated() {
        // The modal knobs are retired: any `Some` is a config error, not a
        // silently ignored setting.
        for c in [
            ControlConfig {
                modal_order: Some(24),
                ..ControlConfig::default()
            },
            ControlConfig {
                modal_tol: Some(0.25),
                ..ControlConfig::default()
            },
        ] {
            assert!(matches!(c.validate(), Err(ProTempError::BadConfig { .. })));
        }
    }

    #[test]
    fn non_finite_tgrad_weight_rejected() {
        for w in [f64::INFINITY, f64::NAN] {
            let c = ControlConfig {
                tgrad_weight: w,
                ..ControlConfig::default()
            };
            assert!(
                matches!(c.validate(), Err(ProTempError::BadConfig { .. })),
                "tgrad_weight {w} must be rejected"
            );
            let ctx = crate::AssignmentContext::new(&protemp_sim::Platform::niagara8(), &c);
            assert!(
                matches!(ctx, Err(ProTempError::BadConfig { .. })),
                "tgrad_weight {w} must not build a context"
            );
        }
    }

    #[test]
    fn mode_display() {
        assert_eq!(FreqMode::Uniform.to_string(), "uniform");
        assert_eq!(FreqMode::Variable.to_string(), "variable");
    }
}
