//! Borrowed, strided matrix views.

use crate::scalar::Scalar;
use std::ops::{Index, Range};
use std::sync::Arc;

/// An immutable view of a `rows × cols` block inside a row-major buffer
/// with row stride `stride ≥ cols`.
#[derive(Clone, Copy)]
pub struct MatrixView<'a, T = f64> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a, T: Scalar> MatrixView<'a, T> {
    /// Wrap `data` as a view. `data` must contain at least
    /// `(rows−1)·stride + cols` elements.
    pub fn new(data: &'a [T], rows: usize, cols: usize, stride: usize) -> Self {
        assert!(stride >= cols, "stride {stride} < cols {cols}");
        if rows > 0 {
            assert!(
                data.len() >= (rows - 1) * stride + cols,
                "buffer too small for {rows}x{cols} view with stride {stride}"
            );
        }
        MatrixView {
            data,
            rows,
            cols,
            stride,
        }
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

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [T] {
        debug_assert!(i < self.rows);
        &self.data[i * self.stride..i * self.stride + self.cols]
    }

    /// The buffer from element `(0, col0)` on, and the row stride: element
    /// `(i, col0 + p)` is at `i·stride + p` of the returned slice.
    pub(crate) fn strided_at(&self, col0: usize) -> (&'a [T], usize) {
        (&self.data[col0..], self.stride)
    }

    /// A sub-view of this view.
    pub fn sub(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> MatrixView<'a, T> {
        assert!(
            row0 + rows <= self.rows && col0 + cols <= self.cols,
            "sub-view out of range"
        );
        // A sub-view without rows reads nothing; on the bottom edge of a
        // view narrower than its stride its start would lie past the buffer.
        let start = if rows == 0 {
            0
        } else {
            row0 * self.stride + col0
        };
        MatrixView::new(&self.data[start..], rows, cols, self.stride)
    }

    /// Copy into a new owned matrix.
    pub(crate) fn to_owned_matrix(self) -> crate::matrix::Matrix<T> {
        let data = self.flat_range_to_vec(0..self.rows * self.cols);
        crate::matrix::Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Copy elements `range` of the view's row-major flattening: one
    /// slice copy when the rows are contiguous in the buffer (a whole
    /// matrix, or full-width rows of one), row pieces otherwise.
    pub fn flat_range_to_vec(&self, range: Range<usize>) -> Vec<T> {
        assert!(
            range.start <= range.end && range.end <= self.rows * self.cols,
            "flat range out of the view"
        );
        if range.is_empty() {
            return Vec::new();
        }
        if self.stride == self.cols {
            return self.data[range].to_vec();
        }
        let mut out = Vec::with_capacity(range.len());
        let (mut i, mut j) = (range.start / self.cols, range.start % self.cols);
        while out.len() < range.len() {
            let take = (self.cols - j).min(range.len() - out.len());
            out.extend_from_slice(&self.row(i)[j..j + take]);
            (i, j) = (i + 1, 0);
        }
        out
    }

    /// [`flat_range_to_vec`](Self::flat_range_to_vec) into a shared
    /// buffer: one allocation and one copy when the rows are contiguous,
    /// by way of the `Vec` otherwise.
    pub fn flat_range_to_arc(&self, range: Range<usize>) -> Arc<[T]> {
        if self.stride != self.cols {
            return Arc::from(self.flat_range_to_vec(range));
        }
        assert!(
            range.end <= self.rows * self.cols,
            "flat range out of the view"
        );
        Arc::from(&self.data[range])
    }
}

impl<T: Scalar> Index<(usize, usize)> for MatrixView<'_, T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.stride + j]
    }
}

#[cfg(test)]
mod tests {
    use crate::matrix::Matrix;

    #[test]
    fn view_indexes_with_stride() {
        let m = Matrix::from_fn(4, 6, |i, j| (i * 6 + j) as f64);
        let v = m.block(1, 2, 2, 3);
        assert_eq!(v.rows(), 2);
        assert_eq!(v.cols(), 3);
        assert_eq!(v[(0, 0)], 8.0);
        assert_eq!(v[(1, 2)], 16.0);
        assert_eq!(v.row(1), &[14.0, 15.0, 16.0]);
    }

    #[test]
    fn sub_view_composes() {
        let m = Matrix::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        let v = m.block(1, 1, 4, 4).sub(1, 2, 2, 1);
        assert_eq!(v[(0, 0)], m[(2, 3)]);
        assert_eq!(v[(1, 0)], m[(3, 3)]);
    }

    #[test]
    fn to_owned_copies() {
        let m = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        let o = m.block(0, 1, 2, 2).to_owned_matrix();
        assert_eq!(o[(0, 0)], 1.0);
        assert_eq!(o[(1, 1)], 3.0);
    }

    #[test]
    fn flat_ranges_cross_row_ends_of_a_strided_view() {
        let m = Matrix::from_fn(5, 7, |i, j| (i * 7 + j) as f64);
        let v = m.block(1, 2, 3, 4);
        let flat = v.to_owned_matrix().into_vec();
        assert_eq!(flat.len(), 12);
        for start in 0..=12 {
            for end in start..=12 {
                assert_eq!(v.flat_range_to_vec(start..end), flat[start..end]);
                assert_eq!(v.flat_range_to_arc(start..end)[..], flat[start..end]);
            }
        }
        // Contiguous rows take the one-slice path; zero columns copy nothing.
        assert_eq!(m.view().flat_range_to_vec(5..17), m.as_slice()[5..17]);
        assert_eq!(m.view().flat_range_to_arc(5..17)[..], m.as_slice()[5..17]);
        assert!(m.block(0, 7, 5, 0).flat_range_to_vec(0..0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_sub_view_panics() {
        let m = Matrix::<f64>::zeros(3, 3);
        let _ = m.block(0, 0, 3, 3).sub(1, 1, 3, 1);
    }

    #[test]
    fn zero_row_view_is_ok() {
        let m = Matrix::<f64>::zeros(3, 3);
        let v = m.block(1, 1, 0, 2);
        assert_eq!(v.rows(), 0);
    }
}
