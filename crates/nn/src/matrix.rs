//! Dense row-major `f32` matrices and the raw numeric kernels.
//!
//! Everything in the DL stack is expressed over 2-D matrices. A batch of
//! sequences is one ragged row stack `[Σ len_b, hidden]` — every
//! sequence keeps its own length, so nothing is ever padded or masked:
//! row-wise ops run over the whole stack and attention is block-diagonal
//! per sequence. A single sequence is a batch of one. That holds for
//! *both* execution backends (see [`crate::exec`]): the recording
//! [`crate::Tape`] used for training and the tape-free `InferExec` used
//! for serving run the same model bodies.
//!
//! The matmul kernels here are shared by both backends so that training
//! and serving produce bit-identical forward values: [`Matrix::matmul`]
//! and friends delegate to the lane-vectorized kernels in
//! [`crate::kernels`], which compute 8 output columns at a time with
//! independent accumulators while keeping each element's ascending-`k`
//! summation order, and the `_into` variants write into caller-provided
//! buffers so the inference arena and the tape backward pass can reuse
//! allocations.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Default for Matrix {
    /// An empty `0×0` matrix (used as a placeholder by the inference
    /// arena when temporarily moving buffers out of their slots).
    fn default() -> Matrix {
        Matrix { rows: 0, cols: 0, data: Vec::new() }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix[{}x{}]", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Constant-filled matrix.
    pub fn full(rows: usize, cols: usize, v: f32) -> Matrix {
        Matrix { rows, cols, data: vec![v; rows * cols] }
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "data length {} != {rows}x{cols}", data.len());
        Matrix { rows, cols, data }
    }

    /// Stacks equally long rows into a `[rows.len(), len]` matrix.
    ///
    /// # Panics
    /// Panics when `rows` is empty or ragged.
    pub fn from_rows<R: AsRef<[f32]>>(rows: &[R]) -> Matrix {
        assert!(!rows.is_empty(), "cannot stack zero rows");
        let cols = rows[0].as_ref().len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.as_ref().len(), cols, "ragged feature rows");
            data.extend_from_slice(r.as_ref());
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// A 1×1 matrix holding a scalar.
    pub fn scalar(v: f32) -> Matrix {
        Matrix { rows: 1, cols: 1, data: vec![v] }
    }

    /// A 1×n row vector.
    pub fn row(data: Vec<f32>) -> Matrix {
        Matrix { rows: 1, cols: data.len(), data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The backing row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The backing row-major slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a 1×1 matrix.
    ///
    /// # Panics
    /// Panics when the matrix is not 1×1.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() on non-scalar {:?}", self.shape());
        self.data[0]
    }

    /// Matrix product `self @ rhs`.
    ///
    /// Delegates to [`Matrix::matmul_into`] so every caller (tape or
    /// tape-free) runs the identical kernel.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// `self @ rhs` written into `out`, which is fully overwritten.
    ///
    /// Runs the branch-free lane kernel ([`crate::kernels::matmul_into`]):
    /// 8 output columns are computed at a time, each with its own
    /// accumulator summing in ascending-`k` order — bit-identical to a
    /// naive i-j-k loop and to the packed, threaded kernel the serving
    /// executor uses.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or when `out` is not
    /// `[self.rows, rhs.cols]`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        crate::kernels::matmul_into(self, rhs, out);
    }

    /// `self @ rhs^T` without materializing the transpose.
    pub fn matmul_bt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_bt_into(rhs, &mut out);
        out
    }

    /// `self @ rhs^T` written into `out` (fully overwritten) — the
    /// allocation-free form used by the tape backward pass.
    ///
    /// # Panics
    /// Panics on shared-dimension mismatch or when `out` is not
    /// `[self.rows, rhs.rows]`.
    pub fn matmul_bt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        crate::kernels::matmul_bt_into(self, rhs, out);
    }

    /// `self^T @ rhs` without materializing the transpose.
    pub fn matmul_at(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.matmul_at_into(rhs, &mut out);
        out
    }

    /// `self^T @ rhs` written into `out` (fully overwritten) — the
    /// allocation-free form used by the tape backward pass.
    ///
    /// # Panics
    /// Panics on shared-dimension mismatch or when `out` is not
    /// `[self.cols, rhs.cols]`.
    pub fn matmul_at_into(&self, rhs: &Matrix, out: &mut Matrix) {
        crate::kernels::matmul_at_into(self, rhs, out);
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise binary zip into a new matrix.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// In-place `self += alpha * rhs`.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Fills with zeros in place.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared Frobenius norm.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Whether every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Vertical concatenation `[self; rhs]` (column counts must match).
    pub fn vcat(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "vcat column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + rhs.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&rhs.data);
        Matrix { rows: self.rows + rhs.rows, cols: self.cols, data }
    }

    /// Horizontal concatenation `[self rhs]` (row counts must match).
    pub fn hcat(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "hcat row mismatch");
        let cols = self.cols + rhs.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row_slice(r));
            data.extend_from_slice(rhs.row_slice(r));
        }
        Matrix { rows: self.rows, cols, data }
    }

    /// Copy of rows `[start, start+len)`.
    pub fn slice_rows(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.rows, "slice_rows out of range");
        Matrix {
            rows: len,
            cols: self.cols,
            data: self.data[start * self.cols..(start + len) * self.cols].to_vec(),
        }
    }

    /// Copy of columns `[start, start+len)`.
    pub fn slice_cols(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.cols, "slice_cols out of range");
        let mut data = Vec::with_capacity(self.rows * len);
        for r in 0..self.rows {
            let row = self.row_slice(r);
            data.extend_from_slice(&row[start..start + len]);
        }
        Matrix { rows: self.rows, cols: len, data }
    }

    /// Row-wise softmax (numerically stabilized by the row max).
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        out.softmax_rows_inplace();
        out
    }

    /// Reshapes in place to `rows × cols`, reusing the existing
    /// allocation when its capacity suffices. The contents afterwards are
    /// unspecified; every element must be overwritten before use. This is
    /// the buffer-recycling primitive behind the inference arena.
    pub fn reset_shape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Overwrites `self` with a copy of `src`, reusing the allocation.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.reset_shape(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Row-wise softmax in place (numerically stabilized by the row max).
    ///
    /// Shares its per-row kernel with the fused scaled-softmax in
    /// [`crate::kernels`], so composed and fused paths are bit-identical.
    pub fn softmax_rows_inplace(&mut self) {
        for r in 0..self.rows {
            crate::kernels::softmax_row(self.row_slice_mut(r));
        }
    }

    /// Row-wise layer normalization in place (no affine transform).
    ///
    /// Shares its per-row kernel with the fused affine layer-norm in
    /// [`crate::kernels`], so composed and fused paths are bit-identical.
    pub fn layer_norm_rows_inplace(&mut self, eps: f32) {
        for r in 0..self.rows {
            crate::kernels::layer_norm_row(self.row_slice_mut(r), eps);
        }
    }

    /// Gathers rows by index into a new `[indices.len(), cols]` matrix.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            assert!(i < self.rows, "gather index {i} out of {} rows", self.rows);
            data.extend_from_slice(self.row_slice(i));
        }
        Matrix { rows: indices.len(), cols: self.cols, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, vals: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, vals.to_vec())
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_bt_equals_explicit_transpose() {
        let a = m(2, 3, &[1., -2., 3., 0.5, 5., -6.]);
        let b = m(4, 3, &[1., 0., 2., -1., 3., 1., 0., 0., 1., 2., 2., 2.]);
        assert_eq!(a.matmul_bt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_at_equals_explicit_transpose() {
        let a = m(3, 2, &[1., -2., 3., 0.5, 5., -6.]);
        let b = m(3, 4, &[1., 0., 2., -1., 3., 1., 0., 0., 1., 2., 2., 2.]);
        assert_eq!(a.matmul_at(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn transpose_involution() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let a = m(2, 3, &[1., 2., 3., -1000., 0., 1000.]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert!(s.get(0, 2) > s.get(0, 1));
        assert!(s.get(1, 2) > 0.99); // extreme logit saturates without NaN
        assert!(s.all_finite());
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let b = m(1, 2, &[5., 6.]);
        let v = a.vcat(&b);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.slice_rows(0, 2), a);
        assert_eq!(v.slice_rows(2, 1), b);

        let c = m(2, 1, &[9., 10.]);
        let h = a.hcat(&c);
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h.slice_cols(0, 2), a);
        assert_eq!(h.slice_cols(2, 1), c);
    }

    #[test]
    fn gather_rows_selects_and_repeats() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.as_slice(), &[5., 6., 1., 2., 5., 6.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = m(1, 3, &[1., 1., 1.]);
        let b = m(1, 3, &[1., 2., 3.]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_dim_mismatch_panics() {
        let a = m(2, 3, &[0.; 6]);
        let b = m(2, 3, &[0.; 6]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_into_reuses_buffers_and_matches_blocked_boundaries() {
        // Awkward inner dimension plus a column count that is neither a
        // multiple of the 8-wide lane nor smaller than it, so the kernel
        // exercises both full and remainder lanes.
        let k = 100;
        let n = 13;
        let a = Matrix::from_vec(3, k, (0..3 * k).map(|i| (i as f32 * 0.37).sin()).collect());
        let b = Matrix::from_vec(k, n, (0..k * n).map(|i| (i as f32 * 0.11).cos()).collect());
        let expect = a.matmul(&b);
        // A recycled buffer of the wrong shape must be reshaped and
        // fully overwritten, old contents notwithstanding.
        let mut out = Matrix::full(7, 2, 123.0);
        out.reset_shape(3, n);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, expect);
    }

    #[test]
    fn transpose_free_into_variants_fully_overwrite_dirty_buffers() {
        let a = m(3, 4, &[1., -2., 3., 0.5, 5., -6., 0., 2., 1., 1., -1., 4.]);
        let b = m(3, 4, &[2., 0., 1., -1., 3., 1., 0., 0., 1., 2., 2., 2.]);
        let mut bt = Matrix::full(9, 9, 77.0);
        bt.reset_shape(3, 3);
        a.matmul_bt_into(&b, &mut bt);
        assert_eq!(bt, a.matmul(&b.transpose()));

        let c = m(3, 5, &[0.; 15]).map(|_| 1.25);
        let mut at = Matrix::full(1, 1, -3.0);
        at.reset_shape(4, 5);
        a.matmul_at_into(&c, &mut at);
        assert_eq!(at, a.transpose().matmul(&c));
    }

    #[test]
    fn reset_shape_and_copy_from_recycle_allocations() {
        let mut buf = Matrix::full(4, 4, 9.0);
        buf.reset_shape(2, 3);
        assert_eq!(buf.shape(), (2, 3));
        let src = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        buf.copy_from(&src);
        assert_eq!(buf, src);
        // Growing past the old capacity still works.
        buf.reset_shape(8, 8);
        assert_eq!(buf.len(), 64);
    }

    #[test]
    fn inplace_rowwise_kernels_match_allocating_versions() {
        let x = m(2, 3, &[1., 2., 3., -1., 0., 1.]);
        let mut s = x.clone();
        s.softmax_rows_inplace();
        assert_eq!(s, x.softmax_rows());
        let mut l = x.clone();
        l.layer_norm_rows_inplace(1e-5);
        for r in 0..2 {
            let sum: f32 = l.row_slice(r).iter().sum();
            assert!(sum.abs() < 1e-4);
        }
    }

    #[test]
    fn scalar_item_and_norms() {
        let s = Matrix::scalar(2.5);
        assert_eq!(s.item(), 2.5);
        let a = m(1, 2, &[3., 4.]);
        assert_eq!(a.sq_norm(), 25.0);
        assert_eq!(a.sum(), 7.0);
    }
}
