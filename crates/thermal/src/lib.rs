//! HotSpot-style RC thermal modeling for the Pro-Temp reproduction.
//!
//! The paper obtains its thermal model from HotSpot \[17\] and the MPSoC
//! thermal tool of \[19\]; this crate rebuilds the same physics from scratch:
//!
//! * [`RcNetwork`] — a lumped thermal RC network derived from a
//!   [`protemp_floorplan::Floorplan`]: one silicon node per block, one
//!   heat-spreader node per block, a lumped heat-sink node, and a fixed
//!   ambient. Lateral conductances follow shared edge lengths; vertical
//!   conductances go through a thermal-interface layer and the spreader.
//! * [`DiscreteModel`] — discrete-time integrators: forward Euler (this is
//!   exactly the paper's Equation (1): `t_{k+1,i} = t_{k,i} + Σ a_ij
//!   (t_{k,j} − t_{k,i}) + b_i p_i`, with the ambient as an implicit
//!   neighbour), backward Euler, and the exact matrix-exponential map used
//!   to validate the others.
//! * [`stability_limit`] — the forward-Euler stable step bound
//!   `2/λ_max(C⁻¹G)`, reproducing the paper's observation that the thermal
//!   equation "had to be solved with a time step of 0.4 ms".
//! * [`AffineReach`] — the affine dependence of every future temperature on
//!   the per-core power vector, `T_k = H_k·p + o_k`; this is what turns the
//!   paper's optimization model (3) into a small convex program.
//! * [`ThermalSim`] — a stateful wrapper advancing a temperature state from
//!   per-block power values, used by the multi-core simulator.
//!
//! # Example
//!
//! ```
//! use protemp_floorplan::niagara::niagara8;
//! use protemp_thermal::{RcNetwork, ThermalConfig};
//!
//! let net = RcNetwork::from_floorplan(&niagara8(), &ThermalConfig::default());
//! // Full power: every core at 4 W, uncore at its fixed share.
//! let powers = net.full_power_vector(4.0);
//! let t = net.steady_state(&powers).unwrap();
//! let hottest = t.iter().cloned().fold(f64::MIN, f64::max);
//! assert!(hottest > 100.0, "full power must exceed the 100 C limit");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod discrete;
mod error;
mod network;
mod propagate;
mod sim;

pub mod leakage;

pub use config::{LayerConfig, ThermalConfig};
pub use discrete::{stability_limit, DiscreteModel, IntegrationMethod};
pub use error::ThermalError;
pub use network::{RcNetwork, UNCORE_POWER_FRACTION};
pub use propagate::AffineReach;
pub use sim::ThermalSim;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, ThermalError>;
