//! # Pro-Temp: convex-optimization-based proactive temperature control
//!
//! This crate is the primary contribution of *"Temperature Control of
//! High-Performance Multi-core Platforms Using Convex Optimization"*
//! (Murali et al., DATE 2008): a two-phase DFS controller that guarantees
//! the cores never exceed the maximum temperature while meeting workload
//! targets and minimizing power.
//!
//! * **Phase 1 (design time)** — [`TableBuilder`] sweeps a grid of starting
//!   temperatures × target average frequencies, solving the paper's convex
//!   model (3)–(5) at each point with the [`protemp_cvx`] interior-point
//!   solver, and stores the per-core frequency vectors in a
//!   [`FrequencyTable`] (the paper's Figure 3/4). Every cell is solved one
//!   way: a [`PointSolver`] over the context's sweep-shared
//!   [`AssignmentContext::family`], after one fused certificate screen per
//!   grid column. Frontier probes, MPC windows and the one-shot
//!   [`solve_assignment`] and [`check_feasible`] solve on that same
//!   family.
//! * **Phase 2 (run time)** — [`ProTempController`] implements the
//!   simulator's [`protemp_sim::DfsPolicy`]: every DFS window it reads the
//!   maximum core temperature and the required average frequency, and picks
//!   the pre-computed assignment from the table (falling back to the next
//!   lower feasible frequency point, exactly as Section 3.3 describes).
//!
//! Supporting APIs: [`solve_assignment`] is the one-shot convex solve
//! (the CODES-ISSS'07 primitive the paper builds on), [`frontier`] computes
//! the uniform-vs-variable feasibility frontiers of Figure 9,
//! [`OnlineController`] is an MPC-style extension that re-solves the convex
//! program at run time instead of using the table, [`LadderController`]
//! runs the same per-window bisection behind a ladder of certified
//! fallback rungs, and [`TableService`] is the production serving tier:
//! lock-free multi-resolution lookups over every stored artifact,
//! refreshed by atomically published snapshots while a background build
//! refines the grid.
//!
//! # Quickstart
//!
//! ```
//! use protemp::prelude::*;
//!
//! let platform = Platform::niagara8();
//! let ctrl_cfg = ControlConfig::default();
//! let ctx = AssignmentContext::new(&platform, &ctrl_cfg).unwrap();
//! // One design point: start at 70 C, require 500 MHz average.
//! let sol = solve_assignment(&ctx, 70.0, 0.5e9).unwrap();
//! let assignment = sol.expect("feasible at 70 C");
//! assert!(assignment.avg_freq_hz() >= 0.5e9 * 0.995);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod assign;
mod builder;
mod controller;
mod error;
mod io;
mod ladder;
mod problem;
mod serve;
mod spec;
mod store;
mod table;

pub mod frontier;

pub use artifact::{BuildArtifact, CellRecord, CellStatus, StoredCertificate};
pub use assign::{
    check_feasible, solve_assignment, AssignmentContext, FrequencyAssignment, PointOutcome,
    PointSolver, SolvedPoint,
};
pub use builder::{BuildStats, TableBuilder};
pub use controller::{OnlineController, ProTempController};
pub use error::ProTempError;
pub use io::{
    read_certificates, read_table, read_table_v2, write_certificates, write_table, write_table_v2,
};
pub use ladder::{LadderController, LadderRung, LadderTelemetry};
pub use problem::{build_problem, build_problem_modal};
pub use protemp_cvx::{CertScratch, Certificate};
pub use serve::{ServeSnapshot, ServedLookup, ServedTableInfo, TableReader, TableService};
pub use spec::{ControlConfig, FreqMode};
pub use store::TableStore;
pub use table::{FrequencyTable, LookupOutcome, LookupRef};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, ProTempError>;

/// Common imports for downstream users.
pub mod prelude {
    pub use crate::{
        solve_assignment, AssignmentContext, ControlConfig, FreqMode, FrequencyAssignment,
        FrequencyTable, ProTempController, TableBuilder,
    };
    pub use protemp_sim::Platform;
}
