use serde::{Deserialize, Serialize};

/// Tuning knobs for the barrier interior-point solver.
///
/// The defaults follow Boyd & Vandenberghe chapter 11 and work for every
/// problem in this workspace; they are exposed so benches can study the
/// accuracy/speed trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverOptions {
    /// Target duality-gap bound: the outer loop stops when
    /// `m_constraints / t < tol`.
    pub tol: f64,
    /// Barrier parameter multiplier between outer iterations (µ).
    pub mu: f64,
    /// Initial barrier parameter `t₀`.
    pub t0: f64,
    /// Newton decrement threshold for inner convergence (`λ²/2 < tol_inner`).
    ///
    /// `λ ≲ 0.01` already certifies the duality-gap bound (Boyd &
    /// Vandenberghe §10.2.2 needs only `λ < 1/4`); pushing far below that
    /// runs into the `f64` noise floor of the barrier derivatives at large
    /// `t` (slacks near `1/t` lose ~5 digits to cancellation), where the
    /// decrement plateaus around `1e-8` and the centering can never
    /// terminate. Keep this at `1e-5` or looser.
    pub tol_inner: f64,
    /// Maximum Newton iterations per centering step.
    pub max_newton: usize,
    /// Maximum outer (centering) iterations per phase.
    pub max_outer: usize,
    /// Armijo slope fraction for backtracking line search.
    pub armijo: f64,
    /// Backtracking shrink factor.
    pub beta: f64,
    /// Strict-feasibility margin required from phase I.
    pub phase1_margin: f64,
    /// Enables the box-grounded row-reduction pass (see
    /// [`crate::ProblemFamily`]): provably redundant linear inequality rows
    /// — rows implied over the variable box by another retained row — are
    /// pruned before phase I. Pruning never changes a feasibility verdict
    /// (the pruned system has exactly the same feasible set) and keeps the
    /// optimum within the solver tolerance; it only shrinks `m` and the
    /// near-degenerate active sets that stall Newton centerings.
    pub row_reduction: bool,
    /// Blend strength for the *stall-proof warm-chain re-entry*: when a
    /// warm-start point sits boundary-degenerate on the next problem
    /// (worst slack under ~1e-12 — the plateau-stalled iterates the
    /// low-target gradient rows produce), sweep layers pull it this
    /// fraction of the way toward the cell's interior heuristic (an
    /// analytic-center estimate) before re-entering the barrier, lifting
    /// the dead slacks into real `f64` territory so the warm chain
    /// survives instead of poisoning the next cell into a cold climb.
    /// Must lie in `(0, 1)`. The solver core itself does not read this; it
    /// lives here so it is part of the option fingerprint that keys
    /// persisted-artifact reuse.
    pub reentry_pullback: f64,
    /// Newton-step budget for the certificate *polish* continuation: when
    /// phase I proves infeasibility through the centered duality-gap bound
    /// but the extracted multipliers do not yet pass the Farkas check, the
    /// climb continues for at most this many extra Newton steps with the
    /// Farkas check as its only exit, minting a transferable certificate
    /// for thin-frontier cells. `0` disables polishing. The verdict itself
    /// is already final when polishing starts — it can only improve the
    /// certificate, never flip a verdict.
    pub polish_budget: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            tol: 1e-7,
            mu: 20.0,
            t0: 1.0,
            tol_inner: 1e-5,
            max_newton: 80,
            max_outer: 60,
            armijo: 0.05,
            beta: 0.5,
            phase1_margin: 1e-8,
            row_reduction: true,
            reentry_pullback: 1e-3,
            polish_budget: 40,
        }
    }
}

impl SolverOptions {
    /// A faster, slightly looser profile used in table generation sweeps.
    pub fn fast() -> Self {
        SolverOptions {
            tol: 1e-5,
            mu: 50.0,
            ..SolverOptions::default()
        }
    }

    /// Validates the option values.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if !(self.tol > 0.0 && self.tol.is_finite()) {
            return Err(format!("tol must be positive, got {}", self.tol));
        }
        if !(self.mu > 1.0 && self.mu.is_finite()) {
            return Err(format!("mu must exceed 1, got {}", self.mu));
        }
        if !(self.t0 > 0.0 && self.t0.is_finite()) {
            return Err(format!("t0 must be positive, got {}", self.t0));
        }
        if !(self.beta > 0.0 && self.beta < 1.0) {
            return Err(format!("beta must be in (0,1), got {}", self.beta));
        }
        if !(self.armijo > 0.0 && self.armijo < 0.5) {
            return Err(format!("armijo must be in (0,0.5), got {}", self.armijo));
        }
        if !(self.reentry_pullback > 0.0 && self.reentry_pullback < 1.0) {
            return Err(format!(
                "reentry_pullback must be in (0,1), got {}",
                self.reentry_pullback
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        SolverOptions::default().validate().unwrap();
        SolverOptions::fast().validate().unwrap();
    }

    #[test]
    fn bad_options_detected() {
        let o = SolverOptions {
            mu: 0.5,
            ..SolverOptions::default()
        };
        assert!(o.validate().is_err());
        for reentry_pullback in [0.0, -1e-3, 1.0] {
            let o = SolverOptions {
                reentry_pullback,
                ..SolverOptions::default()
            };
            assert!(o.validate().is_err(), "reentry_pullback {reentry_pullback}");
        }
    }
}
