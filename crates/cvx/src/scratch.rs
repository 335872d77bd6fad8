//! Reusable solver scratch memory.
//!
//! Every Newton centering step of the barrier method needs the same set of
//! temporaries: the barrier gradient and Hessian, the Jacobi-scaled system,
//! the Cholesky factor, the step and the line-search candidate. Allocating
//! them per iteration puts the heap on the hot path of the Phase-1 sweep
//! (tens of thousands of Newton steps per table build). [`SolverScratch`]
//! owns them instead, keyed by problem dimension, so a
//! [`crate::FamilySolver`] — and therefore every sweep worker, probe and
//! one-shot [`crate::BarrierSolver`] — performs **no per-iteration heap
//! allocation after its first solve** — phase I (dimension `n + 1`) and
//! phase II (dimension `n`) each keep their own slot.

use protemp_linalg::{Cholesky, Matrix};

use crate::CertScratch;

/// Per-dimension buffer set for the Newton inner loop.
#[derive(Debug, Clone)]
pub(crate) struct DimScratch {
    /// Barrier gradient at the current point.
    pub grad: Vec<f64>,
    /// Barrier Hessian at the current point (lower triangle; the strict
    /// upper half is unspecified).
    pub hess: Matrix,
    /// Gradient of one quadratic constraint (temporary).
    pub qgrad: Vec<f64>,
    /// Jacobi scaling `d` with `d_i = 1/sqrt(H_ii)`.
    pub jacobi: Vec<f64>,
    /// Jacobi-scaled Hessian `D H D` (lower triangle).
    pub hs: Matrix,
    /// Scaled negative gradient (Newton right-hand side).
    pub bs: Vec<f64>,
    /// Newton step.
    pub dx: Vec<f64>,
    /// Line-search candidate point.
    pub cand: Vec<f64>,
    /// Copy of the most recent *cleanly centered* iterate (Newton
    /// decrement converged). When the run's final centering stalls, the
    /// barrier loop falls back to this point — an honest (one-µ-looser)
    /// gap bound and healthy slacks instead of a boundary-pressed stall
    /// artifact that would poison every downstream warm start.
    pub center: Vec<f64>,
    /// Constraint slacks `b − Ax` (one per linear row; grows to the row
    /// count on first use).
    pub slack: Vec<f64>,
    /// Constraint weights `1/s` then `1/s²` (one per linear row).
    pub w: Vec<f64>,
    /// Cholesky factor storage, refactored every Newton step.
    pub chol: Cholesky,
}

impl DimScratch {
    fn new(n: usize) -> Self {
        DimScratch {
            grad: vec![0.0; n],
            hess: Matrix::zeros(n, n),
            qgrad: vec![0.0; n],
            jacobi: vec![0.0; n],
            hs: Matrix::zeros(n, n),
            bs: vec![0.0; n],
            dx: vec![0.0; n],
            cand: vec![0.0; n],
            center: vec![0.0; n],
            slack: Vec::new(),
            w: Vec::new(),
            chol: Cholesky::zeroed(n),
        }
    }

    /// Grows the per-row buffers to cover `m` constraint rows. A no-op
    /// (and allocation-free) once they have reached the problem family's
    /// row count.
    pub(crate) fn ensure_rows(&mut self, m: usize) {
        if self.slack.len() < m {
            self.slack.resize(m, 0.0);
            self.w.resize(m, 0.0);
        }
    }
}

/// Reusable buffers for the barrier solver's inner loops.
///
/// Held by a [`crate::FamilySolver`] and persisted across solves; grows
/// once per distinct problem dimension it encounters and is
/// allocation-free afterwards.
#[derive(Debug, Clone, Default)]
pub(crate) struct SolverScratch {
    slots: Vec<(usize, DimScratch)>,
    cert_ws: CertScratch,
}

impl SolverScratch {
    /// An empty scratch; buffers grow on first use.
    pub(crate) fn new() -> Self {
        SolverScratch::default()
    }

    /// The certificate-check workspace shared by this solver's
    /// verification of freshly extracted certificates.
    pub(crate) fn cert_ws(&mut self) -> &mut CertScratch {
        &mut self.cert_ws
    }

    /// The buffer set for dimension `n`, creating it on first request.
    pub(crate) fn for_dim(&mut self, n: usize) -> &mut DimScratch {
        if let Some(pos) = self.slots.iter().position(|(d, _)| *d == n) {
            return &mut self.slots[pos].1;
        }
        self.slots.push((n, DimScratch::new(n)));
        &mut self.slots.last_mut().expect("just pushed").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_cached_per_dimension() {
        let mut s = SolverScratch::new();
        assert_eq!(s.slots.len(), 0);
        let p1 = s.for_dim(4).grad.as_ptr();
        let p2 = s.for_dim(5).grad.as_ptr();
        assert_eq!(s.slots.len(), 2);
        // Re-requesting an existing dimension returns the same buffers.
        assert_eq!(s.for_dim(4).grad.as_ptr(), p1);
        assert_eq!(s.for_dim(5).grad.as_ptr(), p2);
        assert_eq!(s.slots.len(), 2);
    }

    #[test]
    fn footprint_matches_req() {
        // A fresh slot holds seven n-vectors and n × n matrices for the
        // Hessian and its scaled copy; the per-row buffers start empty and
        // only ever grow, to the largest row count seen.
        let mut s = SolverScratch::new();
        let d = s.for_dim(3);
        for v in [
            &d.grad, &d.qgrad, &d.jacobi, &d.bs, &d.dx, &d.cand, &d.center,
        ] {
            assert_eq!(v.len(), 3);
        }
        assert_eq!(d.hess.shape(), (3, 3));
        assert_eq!(d.hs.shape(), (3, 3));
        assert!(d.slack.is_empty() && d.w.is_empty());
        d.ensure_rows(5);
        d.ensure_rows(2);
        assert_eq!((d.slack.len(), d.w.len()), (5, 5));
    }
}
