use serde::{Deserialize, Serialize};

use crate::Certificate;

/// Outcome of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SolveStatus {
    /// Converged to the requested duality-gap tolerance.
    Optimal,
    /// Phase I certified that no strictly feasible point exists.
    Infeasible,
    /// Outer iteration limit reached; the returned point is the best found.
    MaxIterations,
    /// The deterministic tick budget
    /// ([`crate::FamilySolver::set_tick_budget`]) ran out before the solve
    /// reached a certified verdict. When the budget died during centering
    /// the returned point is the truncated — but still strictly feasible —
    /// barrier iterate; when it died inside phase I before either exit
    /// fired the point is empty and the feasibility verdict is undecided.
    Budgeted,
}

impl SolveStatus {
    /// `true` when the solution can be used as an optimum.
    pub fn is_optimal(&self) -> bool {
        matches!(self, SolveStatus::Optimal)
    }

    /// `true` when the verdict is certified (a converged optimum or a
    /// proven infeasibility) rather than truncated by an iteration limit
    /// or the deterministic tick budget.
    pub fn is_certified(&self) -> bool {
        matches!(self, SolveStatus::Optimal | SolveStatus::Infeasible)
    }
}

impl std::fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SolveStatus::Optimal => "optimal",
            SolveStatus::Infeasible => "infeasible",
            SolveStatus::MaxIterations => "max-iterations",
            SolveStatus::Budgeted => "budgeted",
        };
        f.write_str(s)
    }
}

/// Result of a successful solver run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// Termination status.
    pub status: SolveStatus,
    /// Primal point (empty when `status` is `Infeasible`).
    pub x: Vec<f64>,
    /// Objective value at `x` (`f64::INFINITY` when infeasible).
    pub objective: f64,
    /// Outer (centering) iterations used.
    pub outer_iterations: usize,
    /// Total Newton steps across all centerings.
    pub newton_steps: usize,
    /// Newton steps spent inside phase I (0 when a warm start or an
    /// already-feasible seed skipped it). Sweeps use this to report where
    /// their budget went.
    pub phase1_steps: usize,
    /// Final duality-gap upper bound `m/t`.
    pub gap_bound: f64,
    /// Verified Farkas-style infeasibility certificate, present only when
    /// `status` is `Infeasible` and phase I's final iterate yielded
    /// multipliers that re-certify this problem (see
    /// [`crate::Certificate::certifies`]).
    pub certificate: Option<Certificate>,
    /// Linear inequality rows the box-grounded reduction pass pruned
    /// before the solve (0 when `row_reduction` is off, the problem has
    /// equalities, or nothing was provably redundant).
    pub rows_pruned: usize,
    /// `true` when the certificate was minted by the bounded *polish*
    /// continuation after a duality-gap-bound infeasibility verdict
    /// (always `false` for feasible solves).
    pub polished: bool,
}

impl Solution {
    /// An infeasibility marker solution.
    pub(crate) fn infeasible(
        outer: usize,
        newton: usize,
        phase1_steps: usize,
        certificate: Option<Certificate>,
        rows_pruned: usize,
        polished: bool,
    ) -> Self {
        Solution {
            status: SolveStatus::Infeasible,
            x: Vec::new(),
            objective: f64::INFINITY,
            outer_iterations: outer,
            newton_steps: newton,
            phase1_steps,
            gap_bound: f64::INFINITY,
            certificate,
            rows_pruned,
            polished,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_display_and_flags() {
        assert_eq!(SolveStatus::Optimal.to_string(), "optimal");
        assert_eq!(SolveStatus::Budgeted.to_string(), "budgeted");
        assert!(SolveStatus::Optimal.is_optimal());
        assert!(!SolveStatus::Infeasible.is_optimal());
        assert!(SolveStatus::Optimal.is_certified());
        assert!(SolveStatus::Infeasible.is_certified());
        assert!(!SolveStatus::MaxIterations.is_certified());
        assert!(!SolveStatus::Budgeted.is_certified());
    }

    #[test]
    fn infeasible_marker() {
        let s = Solution::infeasible(3, 17, 17, None, 4, true);
        assert_eq!(s.status, SolveStatus::Infeasible);
        assert!(s.x.is_empty());
        assert!(s.objective.is_infinite());
        assert_eq!(s.phase1_steps, 17);
        assert!(s.certificate.is_none());
        assert_eq!(s.rows_pruned, 4);
        assert!(s.polished);
    }
}
