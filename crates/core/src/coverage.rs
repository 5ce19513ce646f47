//! Iteration-space coverage: map every scalar multiplication of the
//! strict-lower SYRK computation to the rank that performs it under each
//! algorithm, and machine-check the §4.2 (Lemma 5) access bounds against
//! those assignments.
//!
//! This is the executable bridge between the algorithms (§5) and the
//! lower-bound argument (§4): the sets `F` of Theorem 1's proof are
//! constructed *from the real algorithms* and their projections
//! `φ_i(F) ∪ φ_j(F)` (elements of `A` accessed) and `φ_k(F)` (entries of
//! `C` contributed to) are measured directly.

use std::collections::HashSet;

use crate::algorithms::grid;
use crate::dist::TriangleBlockDist;
use crate::error::SyrkError;
use crate::planner::Plan;
use syrk_dense::Partition1D;

/// The owner of each strict-lower iteration point under an algorithm's
/// partition of the computation.
pub trait IterationOwner {
    /// Number of ranks.
    fn ranks(&self) -> usize;
    /// The rank performing the multiplication `A[i,t]·A[j,t] → C[i,j]`
    /// (requires `j < i < n1`, `t < n2`).
    fn owner(&self, i: usize, j: usize, t: usize) -> usize;
}

/// The owner map of the grid that runs a [`Plan`]: Algorithm 3's
/// `p1 × p2` grid, of which Algorithms 1 and 2 are the corners. The
/// column `t` selects the slice `ℓ`, the pair of row blocks of `(i, j)`
/// the rank `k` within it (Algorithm 2's owner; Algorithm 1's one-rank
/// slices have one block), and the world rank is `k + ℓ·p1`.
pub struct GridOwner {
    dist: TriangleBlockDist,
    rows: Partition1D,
    cols: Partition1D,
}

impl GridOwner {
    /// Owner map for `plan` on an `n1 × n2` input; `plan` is checked as
    /// [`run`](crate::run) checks it.
    pub fn new(plan: Plan, n1: usize, n2: usize) -> Result<Self, SyrkError> {
        let (dist, p2) = grid(plan)?;
        Ok(GridOwner {
            rows: Partition1D::new(n1, dist.num_blocks()),
            cols: Partition1D::new(n2, p2),
            dist,
        })
    }
}

impl IterationOwner for GridOwner {
    fn ranks(&self) -> usize {
        self.dist.p() * self.cols.parts()
    }
    fn owner(&self, i: usize, j: usize, t: usize) -> usize {
        let (bi, bj) = (self.rows.owner(i), self.rows.owner(j));
        let k = if bi == bj {
            self.dist.diag_owner_of(bi)
        } else {
            // j < i does not imply bj < bi across uneven blocks, but the
            // row partition is monotone, so bj ≤ bi here.
            self.dist.owner_of(bi.max(bj), bi.min(bj))
        };
        k + self.cols.owner(t) * self.dist.p()
    }
}

/// Per-rank footprint of an iteration assignment: the quantities the
/// §4 lower-bound argument reasons about.
#[derive(Debug, Clone)]
pub struct Footprint {
    /// Scalar multiplications (strict-lower) performed by each rank.
    pub mults: Vec<u64>,
    /// Distinct elements of `A` each rank's multiplications touch
    /// (`|φ_i(F) ∪ φ_j(F)|`).
    pub a_elements: Vec<usize>,
    /// Distinct strict-lower entries of `C` each rank contributes to
    /// (`|φ_k(F)|`).
    pub c_entries: Vec<usize>,
}

/// Enumerate the strict prism and attribute every point to its owner.
/// Panics if an owner is out of range. Exhaustive — use small sizes.
pub fn footprint(n1: usize, n2: usize, owner: &impl IterationOwner) -> Footprint {
    let p = owner.ranks();
    let mut mults = vec![0u64; p];
    let mut a_sets: Vec<HashSet<(usize, usize)>> = vec![HashSet::new(); p];
    let mut c_sets: Vec<HashSet<(usize, usize)>> = vec![HashSet::new(); p];
    for i in 0..n1 {
        for j in 0..i {
            for t in 0..n2 {
                let k = owner.owner(i, j, t);
                assert!(k < p, "owner {k} out of range at ({i},{j},{t})");
                mults[k] += 1;
                a_sets[k].insert((i, t));
                a_sets[k].insert((j, t));
                c_sets[k].insert((i, j));
            }
        }
    }
    Footprint {
        mults,
        a_elements: a_sets.into_iter().map(|s| s.len()).collect(),
        c_entries: c_sets.into_iter().map(|s| s.len()).collect(),
    }
}

impl Footprint {
    /// Total multiplications across ranks — must be `n1(n1−1)n2/2` for a
    /// complete assignment (each point owned exactly once, by
    /// construction of [`footprint`]).
    pub fn total_mults(&self) -> u64 {
        self.mults.iter().sum()
    }

    /// Check Lemma 5 on every rank doing at least a `1/P` share: it must
    /// access ≥ `n1n2/2P` elements of `A` and contribute to ≥
    /// `n1(n1−1)/2P` entries of strict-lower `C`. Returns the offending
    /// rank if any.
    pub fn check_lemma5(&self, n1: usize, n2: usize) -> Result<(), usize> {
        let p = self.mults.len() as f64;
        let total = self.total_mults() as f64;
        for (k, &m) in self.mults.iter().enumerate() {
            if (m as f64) >= total / p {
                let a_min = (n1 * n2) as f64 / (2.0 * p);
                let c_min = (n1 * (n1 - 1)) as f64 / (2.0 * p);
                if (self.a_elements[k] as f64) < a_min || (self.c_entries[k] as f64) < c_min {
                    return Err(k);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict_volume(n1: usize, n2: usize) -> u64 {
        (n1 * (n1 - 1) * n2 / 2) as u64
    }

    #[test]
    fn one_d_covers_everything_exactly_once() {
        for (n1, n2, p) in [(6usize, 8usize, 2usize), (9, 10, 4), (5, 3, 5)] {
            let owner = GridOwner::new(Plan::OneD { p }, n1, n2).unwrap();
            let fp = footprint(n1, n2, &owner);
            assert_eq!(fp.total_mults(), strict_volume(n1, n2));
            assert!(fp.check_lemma5(n1, n2).is_ok());
        }
    }

    #[test]
    fn two_d_covers_everything_exactly_once() {
        for (n1, n2, c) in [(8usize, 4usize, 2usize), (9, 5, 3), (10, 3, 3)] {
            let owner = GridOwner::new(Plan::TwoD { c }, n1, n2).unwrap();
            let fp = footprint(n1, n2, &owner);
            assert_eq!(fp.total_mults(), strict_volume(n1, n2), "({n1},{n2},c={c})");
            assert!(fp.check_lemma5(n1, n2).is_ok(), "({n1},{n2},c={c})");
        }
    }

    #[test]
    fn three_d_covers_everything_exactly_once() {
        for (n1, n2, c, p2) in [(8usize, 6usize, 2usize, 3usize), (9, 8, 3, 2)] {
            let owner = GridOwner::new(Plan::ThreeD { c, p2 }, n1, n2).unwrap();
            let fp = footprint(n1, n2, &owner);
            assert_eq!(fp.total_mults(), strict_volume(n1, n2));
            assert!(fp.check_lemma5(n1, n2).is_ok());
        }
    }

    #[test]
    fn two_d_work_is_balanced_up_to_diagonal() {
        // §5.2.3: imbalance comes only from the c ranks without diagonal
        // blocks.
        let (n1, n2, c) = (18usize, 4usize, 3usize);
        let owner = GridOwner::new(Plan::TwoD { c }, n1, n2).unwrap();
        let fp = footprint(n1, n2, &owner);
        let max = *fp.mults.iter().max().unwrap() as f64;
        let avg = fp.total_mults() as f64 / owner.ranks() as f64;
        assert!(max / avg < 1.4, "imbalance {}", max / avg);
    }

    #[test]
    fn two_d_a_footprint_matches_triangle_analysis() {
        // A rank needs exactly its c row blocks of A: c·(n1/c²)·n2
        // elements — the operational-intensity advantage of triangle
        // blocks (§1, Beaumont et al.).
        let (n1, n2, c) = (8usize, 4usize, 2usize);
        let fp = footprint(n1, n2, &GridOwner::new(Plan::TwoD { c }, n1, n2).unwrap());
        let expect = c * (n1 / (c * c)) * n2;
        for (k, &a) in fp.a_elements.iter().enumerate() {
            assert_eq!(a, expect, "rank {k}");
        }
    }

    #[test]
    fn lemma5_detects_a_bad_assignment() {
        // A deliberately degenerate owner: rank 0 does everything but we
        // lie about P = 4 — then rank 0 exceeds the 1/P share while the
        // per-rank minimums scale with P, which a real balanced
        // assignment would satisfy but this footprint (checked against a
        // *fake* inflated P) trips on C-entries only in tiny cases.
        struct AllToZero;
        impl IterationOwner for AllToZero {
            fn ranks(&self) -> usize {
                4
            }
            fn owner(&self, _: usize, _: usize, _: usize) -> usize {
                0
            }
        }
        let fp = footprint(4, 2, &AllToZero);
        // Rank 0 holds the entire prism: Lemma 5 is satisfied *for rank
        // 0* (it accesses everything), and idle ranks are exempt (they do
        // less than a 1/P share): the checker must accept this, proving
        // it checks the right implication direction.
        assert!(fp.check_lemma5(4, 2).is_ok());
        assert_eq!(fp.mults[1], 0);
    }
}
