use protemp_linalg::Matrix;
use serde::{Deserialize, Serialize};

use crate::{CvxError, Result};

/// A convex quadratic inequality constraint `½ xᵀP x + qᵀx ≤ r`.
///
/// `P` must be positive semidefinite; the Pro-Temp models only use diagonal
/// `P` (the frequency–power coupling `p_max·f²/f_max² ≤ p`), but the solver
/// accepts any PSD matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuadConstraint {
    /// Quadratic term (PSD), `n × n`.
    pub p: Matrix,
    /// Linear term, length `n`.
    pub q: Vec<f64>,
    /// Right-hand side.
    pub r: f64,
}

impl QuadConstraint {
    /// Constraint value `½ xᵀP x + qᵀx − r` (feasible when ≤ 0).
    ///
    /// Accumulates `xᵀPx` row by row, so the evaluation is allocation-free —
    /// this runs inside every barrier line-search step.
    pub fn eval(&self, x: &[f64]) -> f64 {
        let mut quad = 0.0;
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            quad += xr * protemp_linalg::vecops::dot(self.p.row(r), x);
        }
        0.5 * quad + protemp_linalg::vecops::dot(&self.q, x) - self.r
    }

    /// Gradient `P x + q`.
    pub fn gradient(&self, x: &[f64]) -> Vec<f64> {
        let mut g = vec![0.0; self.q.len()];
        self.gradient_into(x, &mut g);
        g
    }

    /// Gradient `P x + q` written into `g` (allocation-free variant).
    ///
    /// # Panics
    ///
    /// Panics if the lengths are inconsistent.
    pub fn gradient_into(&self, x: &[f64], g: &mut [f64]) {
        self.p.matvec_into(x, g);
        protemp_linalg::vecops::axpy(1.0, &self.q, g);
    }
}

/// A canonical convex program:
///
/// ```text
/// minimize    ½ xᵀP₀x + q₀ᵀx + c₀
/// subject to  G x ≤ h                    (rows of `lin`)
///             ½ xᵀPᵢx + qᵢᵀx ≤ rᵢ        (entries of `quad`)
///             A x = b                    (rows of `eq`)
/// ```
///
/// Build a problem with the `add_*` methods, then call [`Problem::solve`].
///
/// # Example
///
/// ```
/// use protemp_cvx::{Problem, SolverOptions};
///
/// // minimize x² (as quadratic objective) subject to x ≥ 3.
/// let mut p = Problem::new(1);
/// p.set_quadratic_objective(protemp_linalg::Matrix::from_diag(&[2.0]), vec![0.0]);
/// p.add_linear_le(vec![-1.0], -3.0);
/// let sol = p.solve(&SolverOptions::default()).unwrap();
/// assert!((sol.x[0] - 3.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Problem {
    n: usize,
    p0: Option<Matrix>,
    q0: Vec<f64>,
    c0: f64,
    lin_rows: Vec<Vec<f64>>,
    lin_rhs: Vec<f64>,
    quad: Vec<QuadConstraint>,
    eq_rows: Vec<Vec<f64>>,
    eq_rhs: Vec<f64>,
}

impl Problem {
    /// Creates an empty problem over `n` variables with zero objective.
    pub fn new(n: usize) -> Self {
        Problem {
            n,
            p0: None,
            q0: vec![0.0; n],
            c0: 0.0,
            lin_rows: Vec::new(),
            lin_rhs: Vec::new(),
            quad: Vec::new(),
            eq_rows: Vec::new(),
            eq_rhs: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of inequality constraints (linear + quadratic).
    pub fn num_inequalities(&self) -> usize {
        self.lin_rows.len() + self.quad.len()
    }

    /// Number of equality constraints.
    pub fn num_equalities(&self) -> usize {
        self.eq_rows.len()
    }

    /// Sets a linear objective `q₀ᵀx (+ c₀)`.
    ///
    /// # Panics
    ///
    /// Panics if `q0.len() != n`.
    pub fn set_linear_objective(&mut self, q0: Vec<f64>) {
        assert_eq!(q0.len(), self.n, "objective length");
        self.p0 = None;
        self.q0 = q0;
    }

    /// Sets a convex quadratic objective `½xᵀP₀x + q₀ᵀx`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    pub fn set_quadratic_objective(&mut self, p0: Matrix, q0: Vec<f64>) {
        assert_eq!(p0.shape(), (self.n, self.n), "P0 shape");
        assert_eq!(q0.len(), self.n, "objective length");
        self.p0 = Some(p0);
        self.q0 = q0;
    }

    /// Adds a constant to the objective (reported in solutions).
    pub fn add_objective_constant(&mut self, c: f64) {
        self.c0 += c;
    }

    /// Adds a linear inequality `rowᵀx ≤ rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != n`.
    pub fn add_linear_le(&mut self, row: Vec<f64>, rhs: f64) {
        assert_eq!(row.len(), self.n, "constraint row length");
        self.lin_rows.push(row);
        self.lin_rhs.push(rhs);
    }

    /// Adds a quadratic inequality `½xᵀPx + qᵀx ≤ r`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    pub fn add_quad_le(&mut self, p: Matrix, q: Vec<f64>, r: f64) {
        assert_eq!(p.shape(), (self.n, self.n), "quad P shape");
        assert_eq!(q.len(), self.n, "quad q length");
        self.quad.push(QuadConstraint { p, q, r });
    }

    /// Adds a linear equality `rowᵀx = rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != n`.
    pub fn add_eq(&mut self, row: Vec<f64>, rhs: f64) {
        assert_eq!(row.len(), self.n, "equality row length");
        self.eq_rows.push(row);
        self.eq_rhs.push(rhs);
    }

    /// Adds box bounds `lo ≤ x_i ≤ hi` (either side may be infinite).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `lo > hi`.
    pub fn add_box(&mut self, i: usize, lo: f64, hi: f64) {
        assert!(i < self.n, "variable index out of range");
        assert!(lo <= hi, "empty box bound");
        if lo.is_finite() {
            let mut row = vec![0.0; self.n];
            row[i] = -1.0;
            self.add_linear_le(row, -lo);
        }
        if hi.is_finite() {
            let mut row = vec![0.0; self.n];
            row[i] = 1.0;
            self.add_linear_le(row, hi);
        }
    }

    /// Borrow of the linear inequality rows.
    pub fn lin_rows(&self) -> &[Vec<f64>] {
        &self.lin_rows
    }

    /// Borrow of the linear inequality right-hand sides.
    pub fn lin_rhs(&self) -> &[f64] {
        &self.lin_rhs
    }

    /// Mutable borrow of the linear inequality right-hand sides, for
    /// callers that rebuild a problem family's per-cell data in place
    /// (coefficients stay fixed; only the rhs vary across a sweep).
    pub fn lin_rhs_mut(&mut self) -> &mut [f64] {
        &mut self.lin_rhs
    }

    /// Borrow of the quadratic constraints.
    pub fn quad_constraints(&self) -> &[QuadConstraint] {
        &self.quad
    }

    /// Borrow of the equality rows and right-hand sides.
    pub fn equalities(&self) -> (&[Vec<f64>], &[f64]) {
        (&self.eq_rows, &self.eq_rhs)
    }

    /// Borrow of the objective pieces `(P₀, q₀, c₀)`.
    pub fn objective(&self) -> (Option<&Matrix>, &[f64], f64) {
        (self.p0.as_ref(), &self.q0, self.c0)
    }

    /// Objective value at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n);
        let quad = match &self.p0 {
            Some(p) => 0.5 * protemp_linalg::vecops::dot(&p.matvec(x), x),
            None => 0.0,
        };
        quad + protemp_linalg::vecops::dot(&self.q0, x) + self.c0
    }

    /// Worst inequality violation at `x` (≤ 0 means feasible).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n);
        let mut worst = f64::NEG_INFINITY;
        for (row, rhs) in self.lin_rows.iter().zip(&self.lin_rhs) {
            worst = worst.max(protemp_linalg::vecops::dot(row, x) - rhs);
        }
        for q in &self.quad {
            worst = worst.max(q.eval(x));
        }
        if self.num_inequalities() == 0 {
            0.0
        } else {
            worst
        }
    }

    /// Validates dimensions and finiteness.
    ///
    /// # Errors
    ///
    /// Returns [`CvxError::NotFinite`] if any coefficient is NaN/∞.
    pub fn validate(&self) -> Result<()> {
        let finite_slice = |s: &[f64]| -> bool { s.iter().all(|v| v.is_finite()) };
        if !finite_slice(&self.q0)
            || !finite_slice(&self.lin_rhs)
            || !finite_slice(&self.eq_rhs)
            || !self.lin_rows.iter().all(|r| finite_slice(r))
            || !self.eq_rows.iter().all(|r| finite_slice(r))
            || !self
                .quad
                .iter()
                .all(|q| q.p.is_finite() && finite_slice(&q.q) && q.r.is_finite())
            || self.p0.as_ref().is_some_and(|p| !p.is_finite())
        {
            return Err(CvxError::NotFinite);
        }
        Ok(())
    }

    /// Solves the problem once with the barrier interior-point method,
    /// through a [`crate::FamilySolver`] over the problem's one-cell
    /// [`crate::ProblemFamily`]. To solve many problems that differ only
    /// in their linear right-hand sides, or to warm-start, hold a family
    /// and a family solver instead.
    ///
    /// # Errors
    ///
    /// * [`CvxError::NotFinite`] for malformed inputs.
    /// * [`CvxError::InconsistentEqualities`] when `Ax = b` has no solution.
    /// * [`CvxError::NumericalTrouble`] if Newton stalls (rare; indicates a
    ///   non-PSD quadratic term or wildly scaled data).
    ///
    /// An *infeasible* problem is not an error: it is reported through
    /// [`crate::SolveStatus::Infeasible`].
    ///
    /// # Panics
    ///
    /// Panics if `opts` is invalid (programmer error).
    pub fn solve(&self, opts: &crate::SolverOptions) -> Result<crate::Solution> {
        let family = crate::ProblemFamily::new(self.clone(), opts)?;
        crate::FamilySolver::new(std::sync::Arc::new(family), *opts)
            .solve_cell(&self.lin_rhs, crate::CellSeed::None)
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protemp_linalg::Matrix;

    #[test]
    fn accessors_and_counts() {
        let mut p = Problem::new(2);
        p.add_linear_le(vec![1.0, 1.0], 1.0);
        p.add_box(0, 0.0, 1.0);
        p.add_quad_le(Matrix::identity(2), vec![0.0, 0.0], 1.0);
        p.add_eq(vec![1.0, -1.0], 0.0);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_inequalities(), 4); // 1 + 2 box sides + 1 quad
        assert_eq!(p.num_equalities(), 1);
    }

    #[test]
    fn objective_value_quadratic() {
        let mut p = Problem::new(2);
        p.set_quadratic_objective(Matrix::from_diag(&[2.0, 4.0]), vec![1.0, 0.0]);
        p.add_objective_constant(3.0);
        // ½(2x² + 4y²) + x + 3 at (1, 2) = 1 + 8 + 1 + 3 = 13.
        assert!((p.objective_value(&[1.0, 2.0]) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn violation_measure() {
        let mut p = Problem::new(1);
        p.add_linear_le(vec![1.0], 1.0);
        assert!(p.max_violation(&[0.0]) < 0.0);
        assert!((p.max_violation(&[3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quad_constraint_eval_and_grad() {
        let q = QuadConstraint {
            p: Matrix::from_diag(&[2.0]),
            q: vec![1.0],
            r: 4.0,
        };
        // ½·2x² + x − 4 at x=2 → 4 + 2 − 4 = 2.
        assert!((q.eval(&[2.0]) - 2.0).abs() < 1e-12);
        assert!((q.gradient(&[2.0])[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_nan() {
        let mut p = Problem::new(1);
        p.add_linear_le(vec![f64::NAN], 1.0);
        assert!(matches!(p.validate(), Err(CvxError::NotFinite)));
    }
}
