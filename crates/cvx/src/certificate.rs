//! Farkas-style infeasibility certificates.
//!
//! When phase I fails, the barrier's implicit multipliers `λᵢ = 1/(t·sᵢ)`
//! at the final centered iterate are (approximately) dual feasible for the
//! phase-I program: `λ ≥ 0`, `Σλᵢ = 1`, `Σλᵢ∇fᵢ ≈ 0`, and the aggregated
//! constraint `g(x) = Σλᵢ fᵢ(x)` has a positive infimum over the feasible
//! box — for pure linear constraints this is exactly the Farkas certificate
//! `λ ≥ 0`, `λᵀA = 0`, `λᵀb < 0`. A [`Certificate`] packages `λ` together
//! with an anchor point `x̂`, and [`Certificate::certifies`] re-derives the
//! positive lower bound *on the problem it is handed*, so a certificate
//! extracted at one design point can reject a neighbouring point with one
//! pass over the constraint data (one matvec-equivalent, no solve):
//!
//! ```text
//! g(x) ≥ g(x̂) + ∇g(x̂)ᵀ(x − x̂)            (convexity)
//!      ≥ g(x̂) + min over the box of the linear term
//! ```
//!
//! Any feasible `x` has `g(x) ≤ 0` (each `fᵢ(x) ≤ 0`, `λᵢ ≥ 0`), so a
//! positive lower bound proves infeasibility. Every quantity is evaluated
//! against the target problem's own rows, which makes the check *sound by
//! construction*: a certificate can never reject a feasible problem, no
//! matter which problem it was extracted from. It merely fails to certify
//! when the problems are too different (and the caller falls back to a full
//! phase-I solve).
//!
//! The Phase-1 table sweep exploits monotonicity: offsets rise with the
//! starting temperature and the workload bound tightens with the target
//! frequency, so the right-hand sides of a hotter/faster cell are dominated
//! and the inherited certificate's bound only grows. One certificate kills
//! a whole column tail without ever invoking the solver.

use protemp_linalg::vecops;
use serde::{Deserialize, Serialize};

use crate::{CvxError, Problem};

/// Relative soundness cushion: the certified lower bound must clear the
/// accumulated magnitude of the aggregation by this factor before we trust
/// it, so `f64` cancellation across thousands of rows can never promote a
/// marginally feasible problem to "certified infeasible". Phase I itself
/// only reports feasible when the violation is below `-phase1_margin`, so
/// the cushion costs nothing but near-tie certificates.
pub(crate) const CERT_REL_TOL: f64 = 1e-9;

/// A dual (Farkas-style) infeasibility certificate extracted from a failed
/// phase-I run.
///
/// The fields are plain data so certificates can be serialized next to the
/// tables they pruned and rebuilt by tests; see the module docs for the
/// mathematical contract. Obtain one from
/// [`crate::Solution::certificate`] after an infeasible solve, or from
/// [`crate::FamilySolver::find_feasible_cell`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Certificate {
    /// Nonnegative multipliers over the linear inequality rows, in problem
    /// order (normalized to sum 1 with the quadratic multipliers).
    pub lambda_lin: Vec<f64>,
    /// Nonnegative multipliers over the quadratic constraints, in problem
    /// order.
    pub lambda_quad: Vec<f64>,
    /// Anchor point `x̂` (the failed phase-I iterate, mapped back to the
    /// original variable space) at which the aggregation is linearized.
    pub anchor: Vec<f64>,
}

/// Reusable buffers for [`Certificate::certifies`].
///
/// Hold one per worker and reuse it across checks: after the first check of
/// a given problem size the screen performs no heap allocation (the
/// counting-allocator test pins this down).
#[derive(Debug, Clone, Default)]
pub struct CertScratch {
    /// Aggregated gradient `∇g(x̂) = Σλᵢ∇fᵢ(x̂)`.
    pub(crate) rho: Vec<f64>,
    /// Per-variable lower bounds harvested from single-entry rows.
    pub(crate) lo: Vec<f64>,
    /// Per-variable upper bounds harvested from single-entry rows.
    pub(crate) hi: Vec<f64>,
    /// Gradient of one quadratic constraint (temporary).
    pub(crate) qgrad: Vec<f64>,
}

impl CertScratch {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        CertScratch::default()
    }

    pub(crate) fn ensure(&mut self, n: usize) {
        self.rho.resize(n, 0.0);
        self.lo.resize(n, 0.0);
        self.hi.resize(n, 0.0);
        self.qgrad.resize(n, 0.0);
    }
}

/// A borrowed, storage-agnostic view of one problem's inequality data —
/// what a certificate check actually reads. Constructed from a full
/// [`Problem`] ([`Problem::view`]) or from a [`crate::ProblemFamily`] plus
/// a cell's right-hand sides ([`crate::ProblemFamily::view_with`]); both
/// run the identical aggregation, so family-side screens are bit-identical
/// to per-cell screens.
#[derive(Clone, Copy)]
pub struct ProblemView<'a> {
    pub(crate) n: usize,
    pub(crate) rows: RowsRef<'a>,
    pub(crate) rhs: &'a [f64],
    pub(crate) quad: &'a [crate::QuadConstraint],
}

/// Row storage behind a [`ProblemView`]: per-row slices (a [`Problem`]) or
/// one packed row-major matrix (a [`crate::ProblemFamily`]).
#[derive(Clone, Copy)]
pub(crate) enum RowsRef<'a> {
    Slices(&'a [Vec<f64>]),
    Packed(&'a protemp_linalg::Matrix),
}

impl RowsRef<'_> {
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        match self {
            RowsRef::Slices(r) => &r[i],
            RowsRef::Packed(m) => m.row(i),
        }
    }
}

impl<'a> ProblemView<'a> {
    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of linear inequality rows.
    pub fn num_lin(&self) -> usize {
        self.rhs.len()
    }

    /// Worst inequality violation at `x` (≤ 0 means feasible); mirrors
    /// [`Problem::max_violation`] over whichever storage backs the view.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the view's variable count.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n);
        let mut worst = f64::NEG_INFINITY;
        for i in 0..self.num_lin() {
            worst = worst.max(vecops::dot(self.rows.row(i), x) - self.rhs[i]);
        }
        for q in self.quad {
            worst = worst.max(q.eval(x));
        }
        if self.num_lin() + self.quad.len() == 0 {
            0.0
        } else {
            worst
        }
    }
}

impl Problem {
    /// The borrowed inequality view certificate checks run on.
    pub fn view(&self) -> ProblemView<'_> {
        ProblemView {
            n: self.num_vars(),
            rows: RowsRef::Slices(self.lin_rows()),
            rhs: self.lin_rhs(),
            quad: self.quad_constraints(),
        }
    }
}

impl Certificate {
    /// Structural validity: every multiplier finite and nonnegative, every
    /// anchor coordinate finite. [`Certificate::certifies`] re-checks this
    /// on every call (so even a hand-built certificate can never produce an
    /// unsound verdict); [`Certificate::read_text`] enforces it at parse
    /// time so a tampered serialized certificate is rejected on load rather
    /// than silently carried around until its first use.
    pub fn structurally_valid(&self) -> bool {
        let finite_nonneg = |l: &[f64]| l.iter().all(|&v| v.is_finite() && v >= 0.0);
        finite_nonneg(&self.lambda_lin)
            && finite_nonneg(&self.lambda_quad)
            && self.anchor.iter().all(|v| v.is_finite())
    }

    /// Serializes the certificate as three plain-text lines
    /// (`lambda_lin …`, `lambda_quad …`, `anchor …`), numbers in
    /// shortest-round-trip scientific notation so
    /// [`Certificate::read_text`] reconstructs the exact `f64` values.
    ///
    /// The lines carry no header or framing — callers embed them in their
    /// own container format (the table store wraps each certificate in
    /// `cert …` / `endcert` lines with provenance coordinates).
    ///
    /// # Errors
    ///
    /// Returns [`CvxError::Parse`] on I/O failure.
    pub fn write_text<W: std::io::Write>(&self, w: &mut W) -> Result<(), CvxError> {
        let io_err = |e: std::io::Error| CvxError::Parse {
            reason: format!("certificate write failed: {e}"),
        };
        let nums = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:e}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        writeln!(w, "lambda_lin {}", nums(&self.lambda_lin)).map_err(io_err)?;
        writeln!(w, "lambda_quad {}", nums(&self.lambda_quad)).map_err(io_err)?;
        writeln!(w, "anchor {}", nums(&self.anchor)).map_err(io_err)?;
        Ok(())
    }

    /// Parses the three lines written by [`Certificate::write_text`] and
    /// validates the result structurally — negative or non-finite
    /// multipliers, non-finite anchors, missing or repeated sections all
    /// reject, so a tampered certificate never enters a screening pool.
    ///
    /// # Errors
    ///
    /// Returns [`CvxError::Parse`] on malformed or structurally invalid
    /// input.
    pub fn read_text(text: &str) -> Result<Certificate, CvxError> {
        let bad = |reason: String| CvxError::Parse { reason };
        let parse_nums = |s: &str| -> Result<Vec<f64>, CvxError> {
            s.split_whitespace()
                .map(|t| {
                    t.parse::<f64>()
                        .map_err(|_| bad(format!("bad certificate number `{t}`")))
                })
                .collect()
        };
        let mut lambda_lin = None;
        let mut lambda_quad = None;
        let mut anchor = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (slot, rest) = if let Some(rest) = line.strip_prefix("lambda_lin") {
                (&mut lambda_lin, rest)
            } else if let Some(rest) = line.strip_prefix("lambda_quad") {
                (&mut lambda_quad, rest)
            } else if let Some(rest) = line.strip_prefix("anchor") {
                (&mut anchor, rest)
            } else {
                return Err(bad(format!("unknown certificate line `{line}`")));
            };
            if slot.is_some() {
                return Err(bad(format!("repeated certificate section `{line}`")));
            }
            *slot = Some(parse_nums(rest)?);
        }
        let cert = Certificate {
            lambda_lin: lambda_lin.ok_or_else(|| bad("missing lambda_lin".into()))?,
            lambda_quad: lambda_quad.ok_or_else(|| bad("missing lambda_quad".into()))?,
            anchor: anchor.ok_or_else(|| bad("missing anchor".into()))?,
        };
        if !cert.structurally_valid() {
            return Err(bad(
                "certificate rejected: negative or non-finite entries".into()
            ));
        }
        Ok(cert)
    }

    /// Returns `true` when this certificate proves `prob` infeasible.
    ///
    /// One pass over the constraint data — a matvec-equivalent, no solve.
    /// Everything is evaluated against `prob`'s own rows, so the answer is
    /// sound regardless of which problem the certificate came from; `false`
    /// means "not certified", not "feasible".
    ///
    /// `ws` is clobbered; reuse one [`CertScratch`] across checks to keep
    /// the screen allocation-free.
    pub fn certifies(&self, prob: &Problem, ws: &mut CertScratch) -> bool {
        self.certifies_view(prob.view(), ws)
    }

    /// As [`Certificate::certifies`], over a borrowed [`ProblemView`] —
    /// the entry point for sweep-shared problem families, which have no
    /// per-cell [`Problem`] to hand over. Identical aggregation, identical
    /// verdicts.
    pub fn certifies_view(&self, v: ProblemView<'_>, ws: &mut CertScratch) -> bool {
        let n = v.n;
        let quad = v.quad;
        if self.anchor.len() != n
            || self.lambda_lin.len() != v.num_lin()
            || self.lambda_quad.len() != quad.len()
        {
            return false;
        }
        if !self.structurally_valid() {
            return false;
        }
        ws.ensure(n);
        ws.rho.fill(0.0);
        ws.lo.fill(f64::NEG_INFINITY);
        ws.hi.fill(f64::INFINITY);

        // Aggregate value, gradient, and magnitude; harvest variable bounds
        // from single-entry rows (`c·xⱼ ≤ b`) in the same pass.
        // NOTE: phase I's in-run exit (`phase1_infeas_check` in barrier.rs)
        // mirrors this aggregation over its packed row storage with inline
        // multipliers — changes to the slack/finiteness guards or the
        // harvesting rule must be applied to both (the acceptance verdict
        // itself is shared via `boxed_bound_accepts`).
        let mut value = 0.0;
        let mut mag = 0.0;
        for (i, &l) in self.lambda_lin.iter().enumerate() {
            let row = v.rows.row(i);
            let rhs = v.rhs[i];
            if let Some((j, c)) = single_entry(row) {
                let bound = rhs / c;
                if c > 0.0 {
                    ws.hi[j] = ws.hi[j].min(bound);
                } else {
                    ws.lo[j] = ws.lo[j].max(bound);
                }
            }
            if l == 0.0 {
                continue;
            }
            let f = vecops::dot(row, &self.anchor) - rhs;
            value += l * f;
            mag += l * f.abs();
            vecops::axpy(l, row, &mut ws.rho);
        }
        for (q, &l) in quad.iter().zip(&self.lambda_quad) {
            if l == 0.0 {
                continue;
            }
            let f = q.eval(&self.anchor);
            value += l * f;
            mag += l * f.abs();
            q.gradient_into(&self.anchor, &mut ws.qgrad);
            vecops::axpy(l, &ws.qgrad, &mut ws.rho);
        }

        boxed_bound_accepts(
            value,
            mag,
            &ws.rho[..n],
            &ws.lo[..n],
            &ws.hi[..n],
            &self.anchor,
        )
    }
}

/// The shared tail of every certificate-style verdict: grounds the
/// linearization `g(x) ≥ value + ρᵀ(x − anchor)` on the harvested variable
/// bounds and accepts only when the resulting lower bound clears the
/// accumulated magnitude by [`CERT_REL_TOL`] (an unbounded descent
/// direction, a non-finite term, or a near-tie all reject). Both
/// [`Certificate::certifies`] and phase I's in-run Farkas exit funnel
/// through here, so the soundness cushion lives in exactly one place.
pub(crate) fn boxed_bound_accepts(
    value: f64,
    mut mag: f64,
    rho: &[f64],
    lo: &[f64],
    hi: &[f64],
    anchor: &[f64],
) -> bool {
    let mut lower = value;
    for (((&r, &l), &h), &a) in rho.iter().zip(lo).zip(hi).zip(anchor) {
        let term = if r > 0.0 {
            r * (l - a)
        } else if r < 0.0 {
            r * (h - a)
        } else {
            0.0
        };
        if !term.is_finite() {
            return false;
        }
        lower += term;
        mag += term.abs();
    }
    lower.is_finite() && lower > CERT_REL_TOL * mag.max(1.0)
}

/// `Some((index, coefficient))` when `row` has exactly one nonzero entry.
pub(crate) fn single_entry(row: &[f64]) -> Option<(usize, f64)> {
    let mut found = None;
    for (j, &c) in row.iter().enumerate() {
        if c != 0.0 {
            if found.is_some() {
                return None;
            }
            found = Some((j, c));
        }
    }
    found
}

/// Convenience wrapper around [`Certificate::certifies`] that allocates a
/// fresh workspace. Hot paths (the table sweep, frontier bisection) should
/// hold a [`CertScratch`] instead.
pub fn check_certificate(prob: &Problem, cert: &Certificate) -> bool {
    cert.certifies(prob, &mut CertScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x ≤ 0` and `x ≥ 1`: the textbook Farkas pair.
    fn infeasible_lp() -> Problem {
        let mut p = Problem::new(1);
        p.set_linear_objective(vec![1.0]);
        p.add_linear_le(vec![1.0], 0.0);
        p.add_linear_le(vec![-1.0], -1.0);
        p
    }

    #[test]
    fn hand_built_farkas_certificate_checks() {
        // λ = (½, ½): aggregated row 0·x, aggregated rhs −½ < 0.
        let cert = Certificate {
            lambda_lin: vec![0.5, 0.5],
            lambda_quad: vec![],
            anchor: vec![0.3],
        };
        assert!(check_certificate(&infeasible_lp(), &cert));
    }

    #[test]
    fn certificate_never_rejects_a_feasible_problem() {
        // Same structure, feasible rhs: x ≤ 2 and x ≥ 1.
        let mut p = Problem::new(1);
        p.set_linear_objective(vec![1.0]);
        p.add_linear_le(vec![1.0], 2.0);
        p.add_linear_le(vec![-1.0], -1.0);
        let cert = Certificate {
            lambda_lin: vec![0.5, 0.5],
            lambda_quad: vec![],
            anchor: vec![0.3],
        };
        assert!(!check_certificate(&p, &cert));
    }

    #[test]
    fn shape_mismatch_is_not_certified() {
        let cert = Certificate {
            lambda_lin: vec![1.0],
            lambda_quad: vec![],
            anchor: vec![0.0],
        };
        assert!(!check_certificate(&infeasible_lp(), &cert));
    }

    #[test]
    fn negative_or_nonfinite_multipliers_rejected() {
        let p = infeasible_lp();
        for bad in [vec![-0.5, 1.0], vec![f64::NAN, 0.5]] {
            let cert = Certificate {
                lambda_lin: bad,
                lambda_quad: vec![],
                anchor: vec![0.0],
            };
            assert!(!check_certificate(&p, &cert));
        }
    }

    #[test]
    fn unbounded_residual_direction_is_not_certified() {
        // Certificate leaves a gradient component on an unboxed variable:
        // the linearization has no finite lower bound, so no verdict.
        let mut p = Problem::new(2);
        p.set_linear_objective(vec![0.0, 0.0]);
        p.add_linear_le(vec![1.0, 1.0], 0.0);
        p.add_linear_le(vec![-1.0, 0.0], -1.0);
        p.add_box(0, 0.0, 2.0);
        let cert = Certificate {
            // Aggregation keeps a +½ coefficient on x₁, which has no bounds.
            lambda_lin: vec![0.5, 0.5, 0.0, 0.0],
            lambda_quad: vec![],
            anchor: vec![0.0, 0.0],
        };
        assert!(!check_certificate(&p, &cert));
    }

    #[test]
    fn text_round_trip_is_exact() {
        let cert = Certificate {
            lambda_lin: vec![0.5, 1e-300, 3.337619428157851e-9, 0.0],
            lambda_quad: vec![2.5e-17],
            anchor: vec![-0.3333333333333333, 7.0e8],
        };
        let mut buf = Vec::new();
        cert.write_text(&mut buf).unwrap();
        let parsed = Certificate::read_text(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(parsed, cert, "shortest-round-trip floats must be exact");
    }

    #[test]
    fn text_round_trip_empty_sections() {
        let cert = Certificate {
            lambda_lin: vec![],
            lambda_quad: vec![],
            anchor: vec![0.0],
        };
        let mut buf = Vec::new();
        cert.write_text(&mut buf).unwrap();
        let parsed = Certificate::read_text(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(parsed, cert);
    }

    #[test]
    fn tampered_text_rejected_on_load() {
        for text in [
            "lambda_lin 0.5 -0.5\nlambda_quad\nanchor 0e0\n", // negative multiplier
            "lambda_lin 0.5 NaN\nlambda_quad\nanchor 0e0\n",  // non-finite
            "lambda_lin 0.5\nlambda_quad\nanchor inf\n",      // non-finite anchor
            "lambda_lin 0.5\nanchor 0e0\n",                   // missing section
            "lambda_lin 1\nlambda_lin 1\nlambda_quad\nanchor 0e0\n", // repeated
            "lambda_lin 0.5\nlambda_quad\nanchor 0e0\nbogus 1\n", // unknown line
            "lambda_lin zzz\nlambda_quad\nanchor 0e0\n",      // bad number
        ] {
            assert!(
                matches!(Certificate::read_text(text), Err(CvxError::Parse { .. })),
                "should reject: {text:?}"
            );
        }
    }

    #[test]
    fn quadratic_infeasibility_certified_through_anchor() {
        // ½·2x² ≤ −1 (impossible) with x boxed: λ on the quad row alone
        // certifies through the anchored linearization.
        let mut p = Problem::new(1);
        p.set_linear_objective(vec![1.0]);
        p.add_box(0, -1.0, 1.0);
        p.add_quad_le(protemp_linalg::Matrix::from_diag(&[2.0]), vec![0.0], -1.0);
        let cert = Certificate {
            lambda_lin: vec![0.0, 0.0],
            lambda_quad: vec![1.0],
            anchor: vec![0.0],
        };
        assert!(check_certificate(&p, &cert));
    }
}
