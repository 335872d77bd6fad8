//! The persistent Phase-1 build artifact: the frequency table plus the
//! per-cell evidence the sweep produced along the way — optimal points,
//! solve statistics and the frontier's verified infeasibility certificates.
//!
//! A bare [`crate::FrequencyTable`] is all the run-time controller needs,
//! but it throws away everything an *incremental rebuild* can reuse: the
//! optimizer's raw `x` vectors (warm seeds for a finer grid), the per-cell
//! Newton costs (which let the rebuild replay the builder's adaptive
//! chain decisions exactly), and the Farkas certificates that prove where
//! the feasibility frontier lies (which reject a finer grid's frontier
//! cells in one matvec instead of a phase-I run each). A [`BuildArtifact`]
//! keeps all of it, and [`crate::TableStore`] persists it next to the
//! table under `results/` in the versioned `protemp-table v2` text format.

use protemp_cvx::{CertScratch, Certificate};
use serde::{Deserialize, Serialize};

use crate::{AssignmentContext, FrequencyTable};

/// How one grid cell got its verdict during the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellStatus {
    /// The solver produced an optimal assignment.
    Feasible,
    /// Phase I certified the cell infeasible.
    Infeasible,
    /// A pooled certificate rejected the cell without a solve: one minted
    /// earlier in the same sweep, or one inherited from a prior artifact.
    Screened,
    /// The monotone frontier pruned the cell without even a screen (a
    /// cooler cell in the same column was already infeasible).
    Pruned,
}

impl CellStatus {
    /// Stable text tag used by the v2 table format.
    pub fn tag(&self) -> &'static str {
        match self {
            CellStatus::Feasible => "feasible",
            CellStatus::Infeasible => "infeasible",
            CellStatus::Screened => "screened",
            CellStatus::Pruned => "pruned",
        }
    }

    /// Parses [`CellStatus::tag`] output.
    pub fn from_tag(tag: &str) -> Option<CellStatus> {
        Some(match tag {
            "feasible" => CellStatus::Feasible,
            "infeasible" => CellStatus::Infeasible,
            "screened" => CellStatus::Screened,
            "pruned" => CellStatus::Pruned,
            _ => return None,
        })
    }
}

/// Per-cell build evidence (row-major alongside the table entries).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// How the cell's verdict was reached.
    pub status: CellStatus,
    /// The builder's deterministic cost for this cell: Newton steps across
    /// the final solve *and* any continuation hop sub-solves. This is the
    /// exact quantity the builder's adaptive chain-health check compares
    /// against, which is what lets an incremental rebuild replay those
    /// decisions bit-for-bit.
    pub newton_steps: u64,
    /// `true` when the cell's solve fell through to phase I.
    pub phase1: bool,
    /// `true` when the cell was warm-started from its column neighbour.
    pub warm: bool,
    /// Linear rows the solver's reduction pass pruned for this cell's
    /// final solve (0 for screened/pruned cells and pre-reduction
    /// artifacts; continuation hops are not counted).
    pub rows_pruned: u64,
    /// `true` when the cell's infeasibility certificate was minted by the
    /// bounded polish continuation (possible only on `Infeasible` cells).
    pub polish: bool,
    /// The optimizer's raw solution vector (feasible cells only) — the
    /// warm seed a finer rebuild chains from.
    pub x: Option<Vec<f64>>,
}

/// A certificate together with the design point it was minted at.
///
/// The coordinates are provenance, not trust: on load the certificate is
/// re-verified against the *current* context's problem at these
/// coordinates ([`BuildArtifact::verify_certificates`]), and every later
/// screen re-derives its bound against the target cell's own rows, so a
/// stale or tampered certificate can be dropped but never mislead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredCertificate {
    /// Starting temperature of the cell whose phase I minted this, °C.
    pub tstart_c: f64,
    /// Target frequency of that cell, Hz.
    pub ftarget_hz: f64,
    /// The Farkas-style infeasibility certificate itself.
    pub certificate: Certificate,
}

impl StoredCertificate {
    /// `true` when this certificate still proves infeasibility of the
    /// problem at its recorded coordinates under `ctx` — the single
    /// trust gate every load path funnels through
    /// ([`BuildArtifact::verify_certificates`],
    /// [`crate::TableBuilder::build_incremental`]).
    pub fn verifies(&self, ctx: &AssignmentContext, ws: &mut CertScratch) -> bool {
        self.tstart_c.is_finite()
            && self.ftarget_hz.is_finite()
            && self
                .certificate
                .certifies(&ctx.point_problem(self.tstart_c, self.ftarget_hz), ws)
    }
}

/// Everything one Phase-1 sweep produced: the table, the per-cell
/// evidence, and the frontier's certificates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildArtifact {
    /// The run-time frequency table.
    pub table: FrequencyTable,
    /// Row-major per-cell records, `table.len()` long.
    pub cells: Vec<CellRecord>,
    /// Infeasibility certificates minted during the sweep, in mint order.
    pub certificates: Vec<StoredCertificate>,
    /// Fingerprint of the context (platform + control config + solver
    /// options) the sweep ran against; see
    /// [`AssignmentContext::fingerprint`]. Reuse is refused when it does
    /// not match the rebuilding context.
    pub fingerprint: u64,
    /// Whether the build chained warm starts (the builder's default). An
    /// incremental rebuild only replays prior cells when this matches its
    /// own setting, because the chain decisions being replayed depend on
    /// it.
    pub warm_start: bool,
}

impl BuildArtifact {
    /// The per-cell record at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn cell(&self, row: usize, col: usize) -> &CellRecord {
        &self.cells[row * self.table.ftargets_hz().len() + col]
    }

    /// Re-verifies every stored certificate against the problem at its
    /// recorded coordinates under `ctx`, dropping the ones that no longer
    /// certify (tampered, truncated, or minted under a different model).
    /// Returns how many were dropped.
    ///
    /// [`crate::TableBuilder::build_incremental`] calls this before any
    /// certificate enters a screening pool, so a corrupted `.certs` file
    /// degrades the rebuild to a cold build — it can never tilt a verdict.
    pub fn verify_certificates(&mut self, ctx: &AssignmentContext) -> usize {
        let before = self.certificates.len();
        let mut ws = CertScratch::new();
        self.certificates.retain(|sc| sc.verifies(ctx, &mut ws));
        before - self.certificates.len()
    }
}
