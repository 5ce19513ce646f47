//! Row-major owned matrices.

use crate::scalar::Scalar;
use crate::view::{MatrixView, MatrixViewMut};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major, owned matrix.
///
/// The SYRK algorithms use `Matrix<f64>` so that one element equals one
/// machine word in the communication accounting.
#[derive(Clone, PartialEq)]
pub struct Matrix<T = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Build a matrix from a function of the index pair.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wrap an existing row-major buffer (`data.len()` must be `rows·cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer does not match {rows}x{cols}"
        );
        Matrix { rows, cols, data }
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The underlying row-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume into the underlying buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// A borrowed view of the whole matrix.
    pub fn view(&self) -> MatrixView<'_, T> {
        MatrixView::new(&self.data, self.rows, self.cols, self.cols)
    }

    /// A mutable view of the whole matrix.
    pub fn view_mut(&mut self) -> MatrixViewMut<'_, T> {
        MatrixViewMut::new(&mut self.data, self.rows, self.cols, self.cols)
    }

    /// A borrowed view of the block `rows_range × cols_range`.
    pub fn block(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> MatrixView<'_, T> {
        assert!(
            row0 + rows <= self.rows && col0 + cols <= self.cols,
            "block out of range"
        );
        // A block without rows reads nothing; on the bottom edge
        // (`row0 == self.rows`) its start would lie past the buffer.
        let start = if rows == 0 {
            0
        } else {
            row0 * self.cols + col0
        };
        MatrixView::new(&self.data[start..], rows, cols, self.cols)
    }

    /// Copy the block at `(row0, col0)` of size `rows × cols` into a new
    /// owned matrix.
    pub fn block_owned(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Matrix<T> {
        self.block(row0, col0, rows, cols).to_owned_matrix()
    }

    /// Write `src` into the block at `(row0, col0)`.
    pub fn set_block(&mut self, row0: usize, col0: usize, src: &Matrix<T>) {
        assert!(
            row0 + src.rows <= self.rows && col0 + src.cols <= self.cols,
            "set_block out of range"
        );
        for i in 0..src.rows {
            let dst_start = (row0 + i) * self.cols + col0;
            self.data[dst_start..dst_start + src.cols].copy_from_slice(src.row(i));
        }
    }

    /// The transpose as a new owned matrix.
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// `self += other` element-wise.
    pub fn add_assign(&mut self, other: &Matrix<T>) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// Scale every element by `s`.
    pub fn scale(&mut self, s: T) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Maximum absolute element, as `f64`.
    pub fn max_abs(&self) -> f64 {
        self.data
            .iter()
            .map(|x| x.abs().to_f64())
            .fold(0.0, f64::max)
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn blocks_and_set_block() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let b = m.block_owned(1, 2, 2, 2);
        assert_eq!(b[(0, 0)], 6.0);
        assert_eq!(b[(1, 1)], 11.0);

        let mut z = Matrix::zeros(4, 4);
        z.set_block(1, 2, &b);
        assert_eq!(z[(1, 2)], 6.0);
        assert_eq!(z[(2, 3)], 11.0);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn zero_area_blocks_are_empty_anywhere_the_range_allows() {
        // Every block of a 3 × 4 matrix with no rows or no columns, at
        // every (row0, col0) the range assert accepts, edges included.
        let m = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        for row0 in 0..=3 {
            for col0 in 0..=4 {
                let fits = (0..=3 - row0).flat_map(|r| (0..=4 - col0).map(move |c| (r, c)));
                for (rows, cols) in fits.filter(|&(r, c)| r * c == 0) {
                    let at = format!("{rows}x{cols} at ({row0}, {col0})");
                    let view = m.block(row0, col0, rows, cols);
                    assert_eq!((view.rows(), view.cols()), (rows, cols), "{at}");
                    let owned = m.block_owned(row0, col0, rows, cols);
                    assert_eq!(owned.shape(), (rows, cols), "{at}");
                    assert!(owned.as_slice().is_empty(), "{at}");
                }
            }
        }
    }

    #[test]
    fn transpose_is_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j * 3) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(2, 2, |_, _| 1.0);
        a.add_assign(&b);
        assert_eq!(a[(1, 1)], 3.0);
        a.scale(2.0);
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a.max_abs(), 6.0);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = Matrix::<f64>::zeros(0, 5);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.transpose().shape(), (5, 0));
    }
}
