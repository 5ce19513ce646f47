//! Conformal distribution of the input matrix `A` over a
//! [`TriangleBlockDist`]: row block `A_i` is split evenly among the
//! `c + 1` processors of `Q_i` (§5.2.1). The split is over the flattened
//! row-major elements of the block — the paper leaves the within-block
//! distribution arbitrary as long as it is even.

use std::sync::Arc;

use super::triangle::TriangleBlockDist;
use syrk_dense::{Matrix, MatrixView, Partition1D};

/// Maps between global `A` coordinates and the per-rank chunks of the
/// conformal distribution, for an `n1 × n2` input split into `c²` row
/// blocks (near-even when `c² ∤ n1`).
#[derive(Debug, Clone)]
pub struct ConformalADist<'d> {
    dist: &'d TriangleBlockDist,
    /// Row partition of `0..n1` into `c²` row blocks.
    pub rows: Partition1D,
    n2: usize,
}

impl<'d> ConformalADist<'d> {
    /// Create the conformal distribution of an `n1 × n2` matrix.
    pub fn new(dist: &'d TriangleBlockDist, n1: usize, n2: usize) -> Self {
        let rows = Partition1D::new(n1, dist.num_blocks());
        ConformalADist { dist, rows, n2 }
    }

    /// Dimensions of row block `A_i`.
    pub(crate) fn block_shape(&self, i: usize) -> (usize, usize) {
        (self.rows.len(i), self.n2)
    }

    /// Flattened length of row block `A_i`.
    pub fn block_len(&self, i: usize) -> usize {
        self.rows.len(i) * self.n2
    }

    /// The element partition of `A_i` among its `c+1` owners, in `Q_i`
    /// order (chunk `pos` belongs to the `pos`-th member of `Q_i`).
    pub fn chunk_partition(&self, i: usize) -> Partition1D {
        Partition1D::new(self.block_len(i), self.dist.c() + 1)
    }

    /// The row blocks of `R_k` that have rows, in `R_k` order. With
    /// `n1 < c²` most of `R_k` is empty; Algorithm 2 and the drivers built
    /// on its exchange address blocks by their position in this list.
    /// Live means *rows*, not words: a 3D slice with no local columns
    /// still owes its zero-valued blocks of `C`.
    pub(crate) fn live_blocks(&self, k: usize) -> Vec<usize> {
        let r_k = self.dist.r_set(k).iter().copied();
        r_k.filter(|&i| self.rows.len(i) > 0).collect()
    }

    /// Length of the chunk of `A_i` held by rank `k ∈ Q_i`.
    pub fn chunk_len(&self, i: usize, k: usize) -> usize {
        self.chunk_partition(i).len(self.dist.chunk_index(i, k))
    }

    /// Extract rank `k`'s chunk of `A_i` from `a` (used to stage the
    /// initial distribution; costs nothing on the machine): the one copy
    /// a rank makes of the `n1·n2/P` words it owns, in a buffer the rank
    /// can hand to all `c` other members of `Q_i` without copying it
    /// again. `a` is a view, so a 3D slice passes its column block of the
    /// global matrix as it lies; over a whole matrix the rows of `A_i`
    /// are contiguous and the chunk is one slice of it.
    pub(crate) fn extract_chunk(&self, a: MatrixView<'_, f64>, i: usize, k: usize) -> Arc<[f64]> {
        assert_eq!(a.cols(), self.n2, "matrix width differs from the layout's");
        let base = self.rows.range(i).start * self.n2;
        let chunk = self.chunk_partition(i).range(self.dist.chunk_index(i, k));
        a.flat_range_to_arc(base + chunk.start..base + chunk.end)
    }

    /// Reassemble the full row block `A_i` from its `c+1` chunks, given in
    /// `Q_i` order.
    pub(crate) fn assemble_block<C: AsRef<[f64]>>(
        &self,
        i: usize,
        chunks: impl IntoIterator<Item = C>,
    ) -> Matrix<f64> {
        let part = self.chunk_partition(i);
        let mut flat = Vec::with_capacity(self.block_len(i));
        let mut count = 0;
        for (pos, ch) in chunks.into_iter().enumerate() {
            let ch = ch.as_ref();
            assert_eq!(
                ch.len(),
                part.len(pos),
                "chunk {pos} of A_{i} has the wrong length"
            );
            flat.extend_from_slice(ch);
            count += 1;
        }
        assert_eq!(count, self.dist.c() + 1, "need one chunk per member of Q_i");
        let (r, c) = self.block_shape(i);
        Matrix::from_vec(r, c, flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrk_dense::seeded_matrix;

    #[test]
    fn chunks_reassemble_every_block() {
        let dist = TriangleBlockDist::new(3);
        let (n1, n2) = (27, 5);
        let a = seeded_matrix::<f64>(n1, n2, 1);
        let ad = ConformalADist::new(&dist, n1, n2);
        for i in 0..dist.num_blocks() {
            let chunks: Vec<Arc<[f64]>> = dist
                .q_set(i)
                .iter()
                .map(|&k| ad.extract_chunk(a.view(), i, k))
                .collect();
            let asm = ad.assemble_block(i, &chunks);
            let range = ad.rows.range(i);
            let want = a.block_owned(range.start, 0, range.len(), n2);
            assert_eq!(asm, want, "block {i}");
        }
    }

    #[test]
    fn chunk_of_a_borrowed_column_block_equals_chunk_of_its_copy() {
        // A 3D slice's column block, read where it lies in the global
        // matrix: chunks straddle row ends, slices are one column wide
        // (n2/p2 = 1) or have no columns at all (p2 > n2) and still yield
        // their (empty) chunks.
        for (n1, n2, c, p2) in [(10, 10, 2, 4), (9, 12, 3, 2), (12, 1, 2, 3), (8, 6, 2, 7)] {
            let dist = TriangleBlockDist::new(c);
            let a = seeded_matrix::<f64>(n1, n2, (n1 + n2) as u64);
            let cols = Partition1D::new(n2, p2);
            for l in 0..p2 {
                let cr = cols.range(l);
                let ad = ConformalADist::new(&dist, n1, cr.len());
                let copy = a.block_owned(0, cr.start, n1, cr.len());
                for i in 0..dist.num_blocks() {
                    for &k in dist.q_set(i) {
                        let borrowed = ad.extract_chunk(a.block(0, cr.start, n1, cr.len()), i, k);
                        assert_eq!(borrowed.len(), ad.chunk_len(i, k));
                        assert_eq!(
                            borrowed,
                            ad.extract_chunk(copy.view(), i, k),
                            "({n1}, {n2}, {c}, {p2}) slice {l} block {i} rank {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn uneven_rows_still_tile() {
        // n1 = 10 with c² = 9 row blocks: one block gets 2 rows.
        let dist = TriangleBlockDist::new(3);
        let ad = ConformalADist::new(&dist, 10, 4);
        let total: usize = (0..9).map(|i| ad.block_len(i)).sum();
        assert_eq!(total, 40);
        assert_eq!(ad.block_shape(0), (2, 4));
        assert_eq!(ad.block_shape(8), (1, 4));
    }

    #[test]
    fn chunk_lengths_sum_to_block() {
        let dist = TriangleBlockDist::new(2);
        let ad = ConformalADist::new(&dist, 8, 7);
        for i in 0..4 {
            let sum: usize = dist.q_set(i).iter().map(|&k| ad.chunk_len(i, k)).sum();
            assert_eq!(sum, ad.block_len(i), "block {i}");
        }
    }

    #[test]
    fn chunks_are_even_within_one() {
        let dist = TriangleBlockDist::new(3);
        let ad = ConformalADist::new(&dist, 18, 10);
        for i in 0..9 {
            let lens: Vec<usize> = dist.q_set(i).iter().map(|&k| ad.chunk_len(i, k)).collect();
            let (mn, mx) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(mx - mn <= 1, "block {i}: {lens:?}");
        }
    }
}
