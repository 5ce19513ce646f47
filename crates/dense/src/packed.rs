//! Packed storage for the lower triangle of a symmetric matrix.
//!
//! SYRK's output `C = A·Aᵀ` is symmetric, so algorithms store and
//! communicate only its lower triangle, diagonal included: `n(n+1)/2`
//! entries, as Algorithm 1 communicates it.

use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// The diagonal convention of a packed triangle. There is one: entries
/// with `j ≤ i` are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Diag {
    /// Entries with `j ≤ i` are stored: `n(n+1)/2` elements.
    Inclusive,
}

impl Diag {
    /// Number of packed entries for an `n × n` triangle.
    pub fn packed_len(self, n: usize) -> usize {
        packed_len(n)
    }
}

/// Number of packed entries for an `n × n` triangle, `n(n+1)/2`; also
/// the packed offset of row `n`.
pub(crate) fn packed_len(n: usize) -> usize {
    n * (n + 1) / 2
}

/// Write a packed `n × n` lower triangle into the lower triangle of the
/// diagonal block of `c` at `(at, at)`. The triangle arrives as
/// `segments` that concatenate to its packed row-major order — the final
/// state of a reduce-scatter, or one slice for a whole [`PackedLower`] —
/// and each is copied row piece by row piece straight to its place, with
/// no concatenated buffer and no full-block temporary. Segment
/// boundaries may fall anywhere, and segments may be empty.
pub fn write_packed_lower<'s, T: Scalar>(
    c: &mut Matrix<T>,
    at: usize,
    n: usize,
    segments: impl IntoIterator<Item = &'s [T]>,
) {
    assert!(
        at + n <= c.rows() && at + n <= c.cols(),
        "packed triangle out of range"
    );
    let (mut i, mut j, mut written) = (0, 0, 0);
    for mut seg in segments {
        written += seg.len();
        assert!(written <= packed_len(n), "packed buffer length mismatch");
        while !seg.is_empty() {
            if j == i + 1 {
                (i, j) = (i + 1, 0);
            }
            let (piece, rest) = seg.split_at(seg.len().min(i + 1 - j));
            c.row_mut(at + i)[at + j..at + j + piece.len()].copy_from_slice(piece);
            j += piece.len();
            seg = rest;
        }
    }
    assert_eq!(written, packed_len(n), "packed buffer length mismatch");
}

/// Rows [`mirror_lower_to_upper`] reads at a time: their lines stay in
/// cache while a column of 32-word pieces is written from them.
const MIRROR_TILE: usize = 32;

/// Copy the strict lower triangle of the square `c` onto its upper
/// triangle, a band of rows at a time. A plain `c[(j, i)] = c[(i, j)]`
/// sweep walks a column of the row-major matrix for every row it reads —
/// a cache line per word, and at power-of-two `n` all of them in one
/// cache set (6.4 ms at `n = 1536` where this takes 1.4).
pub fn mirror_lower_to_upper<T: Scalar>(c: &mut Matrix<T>) {
    let n = c.rows();
    assert_eq!(n, c.cols(), "mirror needs a square matrix");
    let data = c.as_mut_slice();
    for i0 in (0..n).step_by(MIRROR_TILE) {
        let i1 = (i0 + MIRROR_TILE).min(n);
        // Left of the diagonal tile: the mirror images lie in the rows
        // above this band.
        let (above, below) = data.split_at_mut(i0 * n);
        let src = &below[..(i1 - i0) * n];
        for j in 0..i0 {
            let dst = &mut above[j * n + i0..j * n + i1];
            for (u, d) in dst.iter_mut().enumerate() {
                *d = src[u * n + j];
            }
        }
        // The diagonal tile mirrors onto itself.
        for i in i0..i1 {
            for j in i0..i {
                data[j * n + i] = data[i * n + j];
            }
        }
    }
}

/// The lower triangle of an `n × n` symmetric matrix in packed row-major
/// order: row `i` contributes entries `(i,0), (i,1), …` up to the diagonal.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedLower<T = f64> {
    n: usize,
    data: Vec<T>,
}

impl<T: Scalar> PackedLower<T> {
    /// A packed triangle of zeros.
    pub fn zeros(n: usize) -> Self {
        PackedLower {
            n,
            data: vec![T::zero(); packed_len(n)],
        }
    }

    /// Wrap an existing packed buffer.
    pub fn from_vec(n: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), packed_len(n), "packed buffer length mismatch");
        PackedLower { n, data }
    }

    /// Pack the lower triangle of a square matrix.
    pub fn from_matrix(m: &Matrix<T>) -> Self {
        assert_eq!(m.rows(), m.cols(), "packed triangle needs a square matrix");
        let n = m.rows();
        let mut data = Vec::with_capacity(packed_len(n));
        for i in 0..n {
            data.extend_from_slice(&m.row(i)[..=i]);
        }
        PackedLower { n, data }
    }

    /// Matrix dimension `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of packed entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether there are no packed entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Packed buffer.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Packed buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume into the packed buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Index of entry `(i, j)` in the packed buffer. Requires `j ≤ i`.
    #[inline]
    pub(crate) fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(j <= i && i < self.n);
        packed_len(i) + j
    }

    /// Entry `(i, j)` of the triangle.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        self.data[self.idx(i, j)]
    }

    /// Set entry `(i, j)` of the triangle.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        let k = self.idx(i, j);
        self.data[k] = v;
    }

    /// Add `v` into entry `(i, j)`.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: T) {
        let k = self.idx(i, j);
        self.data[k] += v;
    }

    /// Expand to a full symmetric matrix.
    pub fn to_full_symmetric(&self) -> Matrix<T> {
        let mut m = Matrix::zeros(self.n, self.n);
        write_packed_lower(&mut m, 0, self.n, [self.as_slice()]);
        mirror_lower_to_upper(&mut m);
        m
    }

    /// `self += other` element-wise.
    pub fn add_assign(&mut self, other: &PackedLower<T>) {
        assert_eq!(self.n, other.n, "dimension mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_lengths() {
        assert_eq!(Diag::Inclusive.packed_len(4), 10);
        assert_eq!(Diag::Inclusive.packed_len(1), 1);
        assert_eq!(Diag::Inclusive.packed_len(0), 0);
    }

    #[test]
    fn idx_is_dense_and_ordered() {
        let p = PackedLower::<f64>::zeros(5);
        let mut expect = 0;
        for i in 0..5 {
            for j in 0..=i {
                assert_eq!(p.idx(i, j), expect);
                expect += 1;
            }
        }
        assert_eq!(expect, p.len());
    }

    #[test]
    fn matrix_roundtrip_inclusive() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let p = PackedLower::from_matrix(&m);
        let full = p.to_full_symmetric();
        for i in 0..4 {
            for j in 0..=i {
                assert_eq!(full[(i, j)], m[(i, j)]);
                assert_eq!(full[(j, i)], m[(i, j)]); // symmetrized
            }
        }
    }

    const SIZES: [usize; 8] = [0, 1, 2, 31, 32, 33, 97, 257];

    /// The element loop `to_full_symmetric` used to be.
    fn naive_full(p: &PackedLower<f64>) -> Matrix<f64> {
        let mut m = Matrix::zeros(p.n(), p.n());
        for i in 0..p.n() {
            for j in 0..=i {
                m[(i, j)] = p.get(i, j);
                m[(j, i)] = p.get(i, j);
            }
        }
        m
    }

    #[test]
    fn mirror_and_expansion_match_the_element_loops() {
        for n in SIZES {
            let mut c = Matrix::from_fn(n, n, |i, j| (i * n + j) as f64);
            let mut want = c.clone();
            for i in 0..n {
                for j in 0..i {
                    want[(j, i)] = want[(i, j)];
                }
            }
            mirror_lower_to_upper(&mut c);
            assert_eq!(c, want, "mirror, n = {n}");
            let data = (0..packed_len(n)).map(|x| 1.0 + x as f64).collect();
            let p = PackedLower::from_vec(n, data);
            assert_eq!(p.to_full_symmetric(), naive_full(&p), "n = {n}");
        }
    }

    #[test]
    fn streamed_rows_land_wherever_the_segments_break() {
        // An even split over `parts` ranks, as a reduce-scatter leaves it:
        // boundaries fall mid-row, and with more ranks than words most
        // segments hold one word or none.
        for n in SIZES {
            let len = packed_len(n);
            let data: Vec<f64> = (0..len).map(|x| 1.0 + x as f64).collect();
            let p = PackedLower::from_vec(n, data.clone());
            // Into an offset diagonal block of a bigger matrix of
            // sentinels: nothing outside the triangle may change.
            let at = 3;
            let mut want = Matrix::from_fn(n + 5, n + 5, |_, _| -1.0);
            for i in 0..n {
                for j in 0..=i {
                    want[(at + i, at + j)] = p.get(i, j);
                }
            }
            for parts in [1, 2, 3, 7, len + 3] {
                let cuts = crate::blocking::Partition1D::new(len, parts);
                let segs = (0..parts).map(|q| &data[cuts.range(q)]);
                let mut c = Matrix::from_fn(n + 5, n + 5, |_, _| -1.0);
                write_packed_lower(&mut c, at, n, segs);
                assert_eq!(c, want, "n = {n} parts = {parts}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn short_stream_panics() {
        let mut c = Matrix::<f64>::zeros(3, 3);
        write_packed_lower(&mut c, 0, 3, [&[1.0, 2.0][..], &[3.0][..]]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn long_stream_panics() {
        let mut c = Matrix::<f64>::zeros(2, 2);
        write_packed_lower(&mut c, 0, 2, [&[1.0, 2.0, 3.0, 4.0][..]]);
    }

    #[test]
    fn set_get_add() {
        let mut p = PackedLower::<f64>::zeros(3);
        p.set(2, 1, 5.0);
        p.add(2, 1, 1.5);
        assert_eq!(p.get(2, 1), 6.5);
        assert_eq!(p.get(1, 0), 0.0);
    }

    #[test]
    fn add_assign_sums() {
        let mut a = PackedLower::from_vec(2, vec![1.0, 2.0, 3.0]);
        let b = PackedLower::from_vec(2, vec![10.0, 20.0, 30.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bad_packed_len_panics() {
        let _ = PackedLower::from_vec(3, vec![1.0, 2.0]);
    }
}
