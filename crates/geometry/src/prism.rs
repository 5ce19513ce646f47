//! The SYRK iteration space: a triangular prism (Fig. 1 of the paper).

use crate::points::PointSet;

/// The iteration space of `C = A·Aᵀ` with `A: n1 × n2`.
///
/// An iteration point `(i, j, k)` performs the scalar multiplication
/// `A[i,k] · A[j,k]` contributing to `C[i,j]`. Restricting to `j ≤ i`
/// (the lower triangle of `C`) gives `n1(n1+1)n2/2` points; restricting
/// to `j < i` (the *strict* lower triangle, which Theorem 1 reasons
/// about) gives `n1(n1−1)n2/2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyrkIterationSpace {
    /// Rows of `A` (and dimension of `C`).
    pub n1: usize,
    /// Columns of `A` (the reduction dimension).
    pub n2: usize,
}

impl SyrkIterationSpace {
    /// Create the iteration space for an `n1 × n2` input.
    pub fn new(n1: usize, n2: usize) -> Self {
        SyrkIterationSpace { n1, n2 }
    }

    /// Number of iteration points with `j ≤ i` — the `n1·n2·(n1+1)/2`
    /// total from Fig. 1.
    pub fn volume_inclusive(&self) -> u64 {
        let (n1, n2) = (self.n1 as u64, self.n2 as u64);
        n1 * (n1 + 1) * n2 / 2
    }

    /// Number of iteration points with `j < i` — `n1(n1−1)n2/2`
    /// (the multiplication count of Lemma 5 / Theorem 1).
    pub fn volume_strict(&self) -> u64 {
        let (n1, n2) = (self.n1 as u64, self.n2 as u64);
        n1 * n1.saturating_sub(1) * n2 / 2
    }

    /// Enumerate the strict prism `{(i,j,k) : 0 ≤ j < i < n1, 0 ≤ k < n2}`.
    /// Only sensible for small sizes (used in tests and E1).
    pub fn enumerate_strict(&self) -> PointSet {
        let mut v = PointSet::new();
        for i in 0..self.n1 as i64 {
            for j in 0..i {
                for k in 0..self.n2 as i64 {
                    v.insert((i, j, k));
                }
            }
        }
        v
    }

    /// Enumerate the inclusive prism (`j ≤ i`).
    pub fn enumerate_inclusive(&self) -> PointSet {
        let mut v = PointSet::new();
        for i in 0..self.n1 as i64 {
            for j in 0..=i {
                for k in 0..self.n2 as i64 {
                    v.insert((i, j, k));
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loomis_whitney::{check_lemma3_proof_steps, check_symmetric_lw};

    #[test]
    fn volumes_match_enumeration() {
        for (n1, n2) in [(0, 3), (1, 5), (2, 2), (5, 3), (7, 1), (6, 6)] {
            let s = SyrkIterationSpace::new(n1, n2);
            assert_eq!(
                s.enumerate_strict().len() as u64,
                s.volume_strict(),
                "{n1}x{n2}"
            );
            assert_eq!(
                s.enumerate_inclusive().len() as u64,
                s.volume_inclusive(),
                "{n1}x{n2}"
            );
        }
    }

    #[test]
    fn figure1_totals() {
        // Fig. 1 caption: n1·n2·(n1+1)/2 iteration points in total.
        let s = SyrkIterationSpace::new(4, 3);
        assert_eq!(s.volume_inclusive(), 4 * 3 * 5 / 2);
        assert_eq!(s.volume_strict(), 4 * 3 * 3 / 2);
    }

    #[test]
    fn strict_prism_satisfies_lemma3() {
        for (n1, n2) in [(2, 1), (5, 4), (8, 3)] {
            let v = SyrkIterationSpace::new(n1, n2).enumerate_strict();
            assert!(check_symmetric_lw(&v));
            assert!(check_lemma3_proof_steps(&v));
        }
    }

    #[test]
    fn degenerate_spaces() {
        let s = SyrkIterationSpace::new(1, 10);
        assert_eq!(s.volume_strict(), 0);
        assert_eq!(s.volume_inclusive(), 10);
        let s = SyrkIterationSpace::new(0, 0);
        assert_eq!(s.volume_inclusive(), 0);
    }
}
