use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::{LinalgError, Result};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse container of the workspace: the thermal state
/// matrices, the optimizer KKT systems and the reachability operators are all
/// `Matrix` values. Square matrices stay small (tens of rows: the thermal
/// nodes, the solver's variables); the tallest is the solver's packed
/// constraint matrix, a few thousand rows by a few tens of columns (4 835 ×
/// 17 on the paper model). Storage is a single contiguous `Vec<f64>`.
///
/// # Example
///
/// ```
/// use protemp_linalg::Matrix;
///
/// let a = Matrix::identity(2);
/// let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Creates a matrix that owns `data` laid out row-major.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Creates a square matrix with `diag` on the diagonal.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Copy of the main diagonal.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product written into `y` (allocation-free variant).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output length mismatch");
        for (r, yr) in y.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yr = acc;
        }
    }

    /// Transposed matrix–vector product `selfᵀ * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols];
        self.matvec_t_into(x, &mut y);
        y
    }

    /// Transposed matrix–vector product written into `y`
    /// (allocation-free variant).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()` or `y.len() != self.cols()`.
    pub fn matvec_t_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        assert_eq!(y.len(), self.cols, "matvec_t output length mismatch");
        y.fill(0.0);
        for (row, &xr) in self.data.chunks_exact(self.cols.max(1)).zip(x) {
            for (yc, a) in y.iter_mut().zip(row) {
                *yc += a * xr;
            }
        }
    }

    /// Nonzero span of every row, in row order: what the span-aware row
    /// kernels ([`Matrix::matvec_rows_into`], [`Matrix::matvec_t_rows_into`],
    /// [`Matrix::syrk_lower_update_rows`]) take. Computed once by whoever
    /// owns a matrix that those kernels run over many times.
    pub fn row_spans(&self) -> Vec<RowSpan> {
        (0..self.rows).map(|r| RowSpan::of(self.row(r))).collect()
    }

    /// Row-view matrix–vector product: `y[i] = row(base(i)) · x`, where
    /// `base(i)` is `rows[i]` for a row subset and `i` for `rows = None`
    /// (every row). Each product reads only the row's span
    /// `spans[base(i)]`.
    ///
    /// The kernel behind the barrier's slacks `b − Ax`. A *pruned*
    /// constraint system keeps the full packed row matrix and hands the
    /// surviving row indices here instead of materializing a reduced copy;
    /// an unpruned one passes `None`. `spans` is [`Matrix::row_spans`],
    /// computed once, never per call.
    ///
    /// Bit-identical to the dense product for finite operands: each entry
    /// is a fold `acc += a·x` from `+0.0` in column order, and the columns
    /// the span leaves out hold `±0.0` coefficients whose products cannot
    /// change such a fold (see the [`RowSpan`] docs). An all-zero row
    /// gives `+0.0`. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`, `spans.len() != self.rows()`,
    /// `y` does not have one entry per viewed row, or any index is out of
    /// range.
    pub fn matvec_rows_into(
        &self,
        spans: &[RowSpan],
        rows: Option<&[usize]>,
        x: &[f64],
        y: &mut [f64],
    ) {
        assert_eq!(x.len(), self.cols, "matvec_rows dimension mismatch");
        assert_eq!(spans.len(), self.rows, "matvec_rows span count");
        let m = rows.map_or(self.rows, <[usize]>::len);
        assert_eq!(y.len(), m, "matvec_rows output length mismatch");
        match rows {
            Some(r) => self.matvec_span_impl(spans, r.iter().copied(), x, y),
            None => self.matvec_span_impl(spans, 0..self.rows, x, y),
        }
    }

    /// The one implementation behind [`Matrix::matvec_rows_into`]'s subset
    /// and full views: `base` yields the row behind each output entry.
    fn matvec_span_impl(
        &self,
        spans: &[RowSpan],
        base: impl Iterator<Item = usize>,
        x: &[f64],
        y: &mut [f64],
    ) {
        for (yr, r) in y.iter_mut().zip(base) {
            let cols = spans[r].range();
            let mut acc = 0.0;
            for (a, b) in self.row(r)[cols.clone()].iter().zip(&x[cols]) {
                acc += a * b;
            }
            *yr = acc;
        }
    }

    /// Row-view transposed matrix–vector product:
    /// `y = Σᵢ w[i] · row(base(i))`, with `w` indexed by view position and
    /// `base` as in [`Matrix::matvec_rows_into`]. Each row adds into its
    /// span's columns only, and zero-weight rows are skipped.
    ///
    /// The kernel behind the barrier gradient's `Aᵀw`. Bit-identical to
    /// the dense product for finite operands: every `y[c]` is a fold from
    /// `+0.0` over the rows in order, and the skipped terms are `±0.0`
    /// products (see [`RowSpan`]). Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.cols()`, `spans.len() != self.rows()`,
    /// `w` does not have one entry per viewed row, or any index is out of
    /// range.
    pub fn matvec_t_rows_into(
        &self,
        spans: &[RowSpan],
        rows: Option<&[usize]>,
        w: &[f64],
        y: &mut [f64],
    ) {
        assert_eq!(y.len(), self.cols, "matvec_t_rows output length mismatch");
        assert_eq!(spans.len(), self.rows, "matvec_t_rows span count");
        let m = rows.map_or(self.rows, <[usize]>::len);
        assert_eq!(w.len(), m, "matvec_t_rows weight length");
        y.fill(0.0);
        match rows {
            Some(r) => self.matvec_t_span_impl(spans, r.iter().copied(), w, y),
            None => self.matvec_t_span_impl(spans, 0..self.rows, w, y),
        }
    }

    /// The one implementation behind [`Matrix::matvec_t_rows_into`]'s
    /// subset and full views.
    fn matvec_t_span_impl(
        &self,
        spans: &[RowSpan],
        base: impl Iterator<Item = usize>,
        w: &[f64],
        y: &mut [f64],
    ) {
        for (r, &wr) in base.zip(w) {
            if wr == 0.0 {
                continue;
            }
            let cols = spans[r].range();
            for (yc, a) in y[cols.clone()].iter_mut().zip(&self.row(r)[cols]) {
                *yc += a * wr;
            }
        }
    }

    /// Copies `other`'s contents into `self`, resizing only on shape
    /// change.
    pub fn copy_from(&mut self, other: &Matrix) {
        if self.shape() != other.shape() {
            self.rows = other.rows;
            self.cols = other.cols;
            self.data.resize(other.data.len(), 0.0);
        }
        self.data.copy_from_slice(&other.data);
    }

    /// Sets every entry to zero, keeping the storage.
    pub fn set_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Matrix–matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(r);
                for (o, b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Scales every entry by `s`, returning a new matrix.
    pub fn scale(&self, s: f64) -> Matrix {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= s;
        }
        out
    }

    /// In-place `self += s * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, s: f64, rhs: &Matrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += s * b;
        }
        Ok(())
    }

    /// In-place `self += s * rhs` on the lower triangle only (including the
    /// diagonal); the strict upper triangle is left untouched.
    ///
    /// Companion to [`Matrix::syrk_lower_update`] for accumulating symmetric
    /// matrices that will only ever be read through their lower triangle
    /// (e.g. by [`crate::Cholesky`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the matrices are not square
    /// of equal size.
    pub fn axpy_lower(&mut self, s: f64, rhs: &Matrix) -> Result<()> {
        if !self.is_square() || self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "axpy_lower",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let n = self.rows;
        for r in 0..n {
            let dst = &mut self.data[r * n..r * n + r + 1];
            let src = &rhs.data[r * n..r * n + r + 1];
            for (a, b) in dst.iter_mut().zip(src) {
                *a += s * b;
            }
        }
        Ok(())
    }

    /// Adds `Aᵀ diag(w) A` to the lower triangle of the matrix (a blocked
    /// rank-k symmetric update, the `syrk` of the barrier Newton assembly);
    /// the strict upper triangle is left untouched.
    ///
    /// Rows of `a` are consumed in panels of up to eight consecutive rows
    /// that share the same nonzero span, so each output row is streamed
    /// once per panel instead of once per constraint row, and columns
    /// outside the span are never touched. Constraint families lay out
    /// exactly like this: box rows touch one column, temperature rows touch
    /// the contiguous power block, so the span pruning skips most of the
    /// matrix. Rows with zero weight are skipped. This entry point finds
    /// each row's span as it goes; a caller that runs the update over the
    /// same matrix many times records the spans once and calls
    /// [`Matrix::syrk_lower_update_rows`] instead. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square with side `a.cols()`, or
    /// `w.len() != a.rows()`.
    pub fn syrk_lower_update(&mut self, a: &Matrix, w: &[f64]) {
        assert!(
            self.is_square() && a.cols() == self.rows,
            "syrk_lower_update shape"
        );
        assert_eq!(a.rows(), w.len(), "syrk_lower_update weight length");
        self.syrk_lower_impl(a, a.rows(), |i| i, |r| RowSpan::of(a.row(r)), w);
    }

    /// Adds `Aᵀ diag(w) A` over a row view of `a` to the lower triangle:
    /// the rows `base(i)` — `rows[i]` for a subset, `i` for `rows = None` —
    /// each weighted by `w[i]` (`w` is indexed by view *position*, matching
    /// the packed slack buffers of a pruned solve), with each row's span
    /// read from `spans` ([`Matrix::row_spans`] of `a`, computed once). The
    /// strict upper triangle is left untouched.
    ///
    /// The barrier Newton assembly's kernel: a pruned constraint system
    /// reuses the full packed row matrix through this view instead of
    /// materializing a reduced copy per solve. Panels form exactly as in
    /// [`Matrix::syrk_lower_update`], over consecutive view positions whose
    /// base rows share a span, which pruned constraint families
    /// (temperature rows, gradient rows) still do; with the spans of `a`
    /// both entry points compute the same bits. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square with side `a.cols()`,
    /// `spans.len() != a.rows()`, `w` does not have one entry per viewed
    /// row, or any index is out of range.
    pub fn syrk_lower_update_rows(
        &mut self,
        a: &Matrix,
        spans: &[RowSpan],
        rows: Option<&[usize]>,
        w: &[f64],
    ) {
        assert!(
            self.is_square() && a.cols() == self.rows,
            "syrk_lower_update_rows shape"
        );
        assert_eq!(spans.len(), a.rows(), "syrk_lower_update_rows span count");
        let m = rows.map_or(a.rows(), <[usize]>::len);
        assert_eq!(w.len(), m, "syrk_lower_update_rows weight length");
        match rows {
            Some(r) => self.syrk_lower_impl(a, m, |i| r[i], |b| spans[b], w),
            None => self.syrk_lower_impl(a, m, |i| i, |b| spans[b], w),
        }
    }

    /// The one blocked span-panel syrk implementation behind both
    /// [`Matrix::syrk_lower_update`] and
    /// [`Matrix::syrk_lower_update_rows`]: `base(i)` maps position `i`
    /// (which indexes `w`) to a row of `a`, and `span(r)` gives row `r`'s
    /// nonzero span. Generic so each caller monomorphizes, and the public
    /// entry points can never drift numerically.
    ///
    /// A panel is a run of up to [`SYRK_PANEL`] consecutive positions with
    /// nonzero weight and one shared, nonempty span; a zero weight or a new
    /// span ends it. Each lower-triangle entry `h` inside the span then
    /// receives `acc = 0.0; acc += (wⱼ·aⱼ[r])·aⱼ[c]` for the panel's rows
    /// `j` in order, then `h += acc` — see [`syrk_panel`].
    fn syrk_lower_impl(
        &mut self,
        a: &Matrix,
        m: usize,
        base: impl Fn(usize) -> usize,
        span: impl Fn(usize) -> RowSpan,
        w: &[f64],
    ) {
        let n = self.rows;
        let mut k = 0;
        while k < m {
            let s = span(base(k));
            if w[k] == 0.0 || s.is_empty() {
                k += 1;
                continue;
            }
            // Extend the panel over consecutive positions whose rows share
            // the same span.
            let mut end = k + 1;
            while end < m && end - k < SYRK_PANEL && w[end] != 0.0 && span(base(end)) == s {
                end += 1;
            }
            let cols = s.range();
            let mut rows: [&[f64]; SYRK_PANEL] = [&[]; SYRK_PANEL];
            let mut wts = [0.0_f64; SYRK_PANEL];
            for (j, (row, wt)) in rows.iter_mut().zip(&mut wts).take(end - k).enumerate() {
                *row = &a.row(base(k + j))[cols.clone()];
                *wt = w[k + j];
            }
            let h = &mut self.data;
            match end - k {
                1 => syrk_panel::<1>(h, n, s.start, &rows, &wts),
                2 => syrk_panel::<2>(h, n, s.start, &rows, &wts),
                3 => syrk_panel::<3>(h, n, s.start, &rows, &wts),
                4 => syrk_panel::<4>(h, n, s.start, &rows, &wts),
                5 => syrk_panel::<5>(h, n, s.start, &rows, &wts),
                6 => syrk_panel::<6>(h, n, s.start, &rows, &wts),
                7 => syrk_panel::<7>(h, n, s.start, &rows, &wts),
                _ => syrk_panel::<SYRK_PANEL>(h, n, s.start, &rows, &wts),
            }
            k = end;
        }
    }

    /// Adds `s * x xᵀ` to the matrix (symmetric rank-1 update).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square with side `x.len()`.
    pub fn rank1_update(&mut self, s: f64, x: &[f64]) {
        assert!(
            self.is_square() && self.rows == x.len(),
            "rank1_update shape"
        );
        for r in 0..self.rows {
            let xr = s * x[r];
            if xr == 0.0 {
                continue;
            }
            let row = self.row_mut(r);
            for (v, xc) in row.iter_mut().zip(x) {
                *v += xr * xc;
            }
        }
    }

    /// Adds `s * x xᵀ` to the lower triangle only (including the diagonal);
    /// the strict upper triangle is left untouched.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square with side `x.len()`.
    pub fn rank1_update_lower(&mut self, s: f64, x: &[f64]) {
        assert!(
            self.is_square() && self.rows == x.len(),
            "rank1_update_lower shape"
        );
        let n = self.rows;
        for r in 0..n {
            let xr = s * x[r];
            if xr == 0.0 {
                continue;
            }
            let row = &mut self.data[r * n..r * n + r + 1];
            for (v, xc) in row.iter_mut().zip(x) {
                *v += xr * xc;
            }
        }
    }

    /// Maximum absolute entry (the max norm).
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Induced 1-norm (maximum absolute column sum).
    pub fn norm_one(&self) -> f64 {
        let mut best = 0.0_f64;
        for c in 0..self.cols {
            let mut s = 0.0;
            for r in 0..self.rows {
                s += self[(r, c)].abs();
            }
            best = best.max(s);
        }
        best
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// `true` if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// `true` if the matrix is symmetric to within `tol` (absolute).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self[(r, c)] - self[(c, r)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Extracts the sub-matrix with the given rows.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }
}

/// The columns `start..end` of one matrix row that hold all its nonzero
/// entries: `start` is the first column whose entry is not `±0.0` and
/// `end` is one past the last. An all-zero row has the empty span `0..0`.
///
/// The span-aware row kernels read a row only over its span. For finite
/// operands this is exact, not an approximation. A dense fold
/// `acc += a·x` from `acc = +0.0` meets `±0.0` products in the columns
/// outside the span, and those cannot change it: a round-to-nearest sum is
/// `−0.0` only when both addends are, so an accumulator that starts at
/// `+0.0` never becomes `−0.0`, and adding `±0.0` to any other value leaves
/// it unchanged. A non-finite operand outside the span would break this
/// (`0·∞` is NaN), so callers keep the operands finite.
///
/// # Example
///
/// ```
/// use protemp_linalg::RowSpan;
///
/// let s = RowSpan::of(&[0.0, -0.0, 2.0, 0.0, 1.0, 0.0]);
/// assert_eq!(s.range(), 2..5);
/// assert!(RowSpan::of(&[0.0, -0.0]).is_empty());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowSpan {
    /// First column holding a nonzero entry (`0` for an all-zero row).
    pub start: usize,
    /// One past the last column holding a nonzero entry (`0` for an
    /// all-zero row).
    pub end: usize,
}

impl RowSpan {
    /// The span of `row`'s nonzero entries.
    pub fn of(row: &[f64]) -> RowSpan {
        match row.iter().position(|&v| v != 0.0) {
            Some(start) => {
                let last = row.iter().rposition(|&v| v != 0.0).unwrap_or(start);
                RowSpan {
                    start,
                    end: last + 1,
                }
            }
            None => RowSpan::default(),
        }
    }

    /// `true` for an all-zero row.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// The span as a column range, for slicing a row.
    pub fn range(self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// Rows per panel of the span-panel syrk.
const SYRK_PANEL: usize = 8;

/// The syrk micro-kernel: adds one panel of `P` rows that share the span
/// `lo..lo + width` to the lower triangle of the row-major `n × n` matrix
/// `h`. `rows[j]` holds row `j`'s coefficients over the span, `w[j]` its
/// weight; entries `P..` of both arrays are ignored.
///
/// Entry `(lo + r, lo + c)`, `c ≤ r`, receives `acc = 0.0`, then
/// `acc += (w[j]·rows[j][r])·rows[j][c]` for `j = 0, 1, …, P − 1`, then
/// `h += acc`. `P` is a constant, so the chain over `j` unrolls while
/// keeping that order; the row slices are cut once per panel.
fn syrk_panel<const P: usize>(
    h: &mut [f64],
    n: usize,
    lo: usize,
    rows: &[&[f64]; SYRK_PANEL],
    w: &[f64; SYRK_PANEL],
) {
    let rows: [&[f64]; P] = std::array::from_fn(|j| rows[j]);
    let width = rows[0].len();
    for r in 0..width {
        let coef: [f64; P] = std::array::from_fn(|j| w[j] * rows[j][r]);
        let tri: [&[f64]; P] = std::array::from_fn(|j| &rows[j][..=r]);
        let dst = &mut h[(lo + r) * n + lo..][..=r];
        for (c, hv) in dst.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (cj, tj) in coef.iter().zip(&tri) {
                acc += cj * tj[c];
            }
            *hv += acc;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add shape mismatch");
        let mut out = self.clone();
        out.axpy(1.0, rhs).expect("shapes checked");
        out
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub shape mismatch");
        let mut out = self.clone();
        out.axpy(-1.0, rhs).expect("shapes checked");
        out
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs).expect("matrix += shape mismatch");
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        self.axpy(-1.0, rhs).expect("matrix -= shape mismatch");
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert!(i.is_symmetric(0.0));
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matvec_and_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        let at = a.transpose();
        assert_eq!(at.shape(), (3, 2));
        assert_eq!(at[(2, 1)], 6.0);
        assert_eq!(a.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn rank1_update_is_symmetric() {
        let mut m = Matrix::zeros(3, 3);
        m.rank1_update(2.0, &[1.0, 2.0, 3.0]);
        assert!(m.is_symmetric(0.0));
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m[(0, 0)], 2.0);
    }

    /// Reference implementation: full-matrix rank-1 accumulation.
    fn naive_atda(a: &Matrix, w: &[f64]) -> Matrix {
        let mut h = Matrix::zeros(a.cols(), a.cols());
        for (k, &wk) in w.iter().enumerate() {
            h.rank1_update(wk, a.row(k));
        }
        h
    }

    #[test]
    fn syrk_lower_matches_naive_on_lower_triangle() {
        // Mix of span shapes: a box-like row, contiguous blocks, full rows,
        // a zero row and a zero weight.
        let a = Matrix::from_rows(&[
            &[0.0, 0.0, 1.0, 0.0, 0.0],
            &[0.0, 2.0, -1.0, 3.0, 0.0],
            &[0.0, 1.0, 4.0, -2.0, 0.0],
            &[0.0, 0.5, 0.5, 0.5, 0.0],
            &[1.0, 2.0, 3.0, 4.0, 5.0],
            &[0.0, 0.0, 0.0, 0.0, 0.0],
            &[-1.0, 0.0, 0.0, 0.0, 2.0],
        ]);
        let w = [1.0, 0.5, 2.0, 0.0, 1.5, 3.0, 0.25];
        let expect = naive_atda(&a, &w);
        let mut h = Matrix::zeros(5, 5);
        // Poison the strict upper triangle: it must survive untouched.
        for r in 0..5 {
            for c in (r + 1)..5 {
                h[(r, c)] = 77.0;
            }
        }
        h.syrk_lower_update(&a, &w);
        for r in 0..5 {
            for c in 0..5 {
                if c <= r {
                    assert!(
                        (h[(r, c)] - expect[(r, c)]).abs() < 1e-12,
                        "H[{r}][{c}] = {} vs {}",
                        h[(r, c)],
                        expect[(r, c)]
                    );
                } else {
                    assert_eq!(h[(r, c)], 77.0, "upper triangle must be untouched");
                }
            }
        }
    }

    #[test]
    fn syrk_lower_long_panel_of_identical_spans() {
        // More rows than one panel (8) sharing a span, to cross the panel
        // boundary path.
        let m = 21;
        let a = Matrix::from_fn(m, 4, |r, c| {
            if c == 0 {
                0.0
            } else {
                ((r * 7 + c * 3) % 5) as f64 - 2.0
            }
        });
        let w: Vec<f64> = (0..m).map(|k| 0.1 + (k % 3) as f64).collect();
        let expect = naive_atda(&a, &w);
        let mut h = Matrix::zeros(4, 4);
        h.syrk_lower_update(&a, &w);
        for r in 0..4 {
            for c in 0..=r {
                assert!((h[(r, c)] - expect[(r, c)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn axpy_lower_and_rank1_lower_leave_upper_alone() {
        let mut h = Matrix::zeros(3, 3);
        h[(0, 2)] = 9.0;
        h.axpy_lower(2.0, &Matrix::identity(3)).unwrap();
        h.rank1_update_lower(1.0, &[1.0, 2.0, 3.0]);
        assert_eq!(h[(0, 0)], 3.0);
        assert_eq!(h[(1, 0)], 2.0);
        assert_eq!(h[(2, 1)], 6.0);
        assert_eq!(h[(2, 2)], 11.0);
        assert_eq!(h[(0, 2)], 9.0, "upper triangle untouched");
        assert_eq!(h[(0, 1)], 0.0);
        // Shape mismatch is an error.
        assert!(h.axpy_lower(1.0, &Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]);
        assert_eq!(m.norm_max(), 4.0);
        assert_eq!(m.norm_one(), 6.0);
        assert!((m.norm_fro() - 30.0_f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    fn select_rows_picks_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s, Matrix::from_rows(&[&[5.0, 6.0], &[1.0, 2.0]]));
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::identity(2);
        assert!(!format!("{m}").is_empty());
    }

    #[test]
    fn operators() {
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let s = &a + &b;
        assert_eq!(s, Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]));
        let d = &s - &b;
        assert_eq!(d, a);
        let m = &a * 3.0;
        assert_eq!(m[(0, 0)], 3.0);
        let n = -&a;
        assert_eq!(n[(1, 1)], -1.0);
    }

    #[test]
    fn into_variants_match_allocating_versions() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = [1.0, 0.0, -1.0];
        let mut y = vec![9.0; 2];
        a.matvec_into(&x, &mut y);
        assert_eq!(y, a.matvec(&x));
        let xt = [1.0, 1.0];
        let mut yt = vec![9.0; 3];
        a.matvec_t_into(&xt, &mut yt);
        assert_eq!(yt, a.matvec_t(&xt));
    }

    #[test]
    fn copy_from_and_set_zero() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut b = Matrix::zeros(1, 1);
        b.copy_from(&a);
        assert_eq!(b, a);
        b.set_zero();
        assert_eq!(b, Matrix::zeros(2, 2));
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.diag(), vec![1.0, 2.0, 3.0]);
        assert_eq!(d[(0, 1)], 0.0);
    }
}
