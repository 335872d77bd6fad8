//! Dense linear algebra kernels for the Pro-Temp reproduction.
//!
//! This crate provides exactly the numerical building blocks the rest of the
//! workspace needs, implemented from scratch with no external dependencies:
//!
//! * [`Matrix`] — a dense, row-major, `f64` matrix with the usual arithmetic.
//! * [`Cholesky`] — SPD factorization used by the interior-point solver.
//! * [`Lu`] — LU with partial pivoting for general square systems
//!   (KKT systems, steady-state thermal solves).
//! * [`Qr`] — Householder QR for least squares and nullspace bases.
//! * [`expm`] — scaling-and-squaring Padé matrix exponential used to
//!   validate the thermal integrators against the exact solution.
//! * [`eigen`] — power-iteration bounds (spectral radius, extremal symmetric
//!   eigenvalues) used for integrator stability limits.
//! * [`vecops`] — small vector helpers on `&[f64]`.
//! * [`SolveWorkspace`] / [`StackReq`] — caller-provided scratch memory for
//!   the `_in_place` kernel variants, sized up front from the problem
//!   dimensions (the faer `*_req` idiom); hot loops factor and solve with
//!   zero heap traffic after the first iteration.
//!
//! The square matrices in this workspace are small (tens of rows), so the
//! factorizations favour clarity and numerical robustness over blocked
//! performance. The one tall matrix is the solver's packed constraint
//! matrix (thousands of rows, each with a short run of nonzeros): its row
//! kernels ([`Matrix::matvec_rows_into`], [`Matrix::matvec_t_rows_into`],
//! [`Matrix::syrk_lower_update_rows`]) touch only each row's [`RowSpan`],
//! recorded once by the caller.
//!
//! # Example
//!
//! ```
//! use protemp_linalg::{Matrix, Lu};
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let lu = Lu::factor(&a).unwrap();
//! let x = lu.solve(&[1.0, 2.0]).unwrap();
//! let r = a.matvec(&x);
//! assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cholesky;
mod error;
mod expm;
mod lu;
mod matrix;
mod qr;
mod workspace;

pub mod eigen;
pub mod vecops;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use expm::expm;
pub use lu::Lu;
pub use matrix::{Matrix, RowSpan};
pub use qr::Qr;
pub use workspace::{SolveWorkspace, Stack, StackReq};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
