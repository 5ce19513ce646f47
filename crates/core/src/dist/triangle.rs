//! The Triangle Block Distribution (§5.2.1, eqs. (4)–(8)).
//!
//! For `P = c(c+1)` with `c` prime, the `c² × c²` grid of blocks of the
//! symmetric output `C` is partitioned so that every processor owns
//! `c(c−1)/2` off-diagonal blocks forming a *triangle block of blocks*
//! (the strict lower triangle of `R_k × R_k` for a `c`-element row block
//! set `R_k`), and `c²` of the processors own one diagonal block each
//! (`D_k ⊆ R_k`). The conformal input distribution splits row block `A_i`
//! evenly among the `c+1` processors `Q_i = {k : i ∈ R_k}`.

use super::affine::{affine_plane_lines, match_diagonals};
use crate::primes::is_prime;

/// The Triangle Block Distribution for `P = c(c+1)` processors, `c` prime.
#[derive(Debug, Clone)]
pub struct TriangleBlockDist {
    c: usize,
    /// `R_k` (sorted), indexed by processor rank `k < c(c+1)`.
    r: Vec<Vec<usize>>,
    /// `D_k`: index of the diagonal block owned by `k`, if any.
    d: Vec<Option<usize>>,
    /// `Q_i` (sorted), indexed by block row `i < c²`.
    q: Vec<Vec<usize>>,
    /// Owner of diagonal block `(i, i)`, indexed by `i`.
    diag_owner: Vec<usize>,
}

/// The common element of two sorted sets, if any. A valid distribution
/// never has two: ranks share at most one row block, and two row blocks
/// share exactly one rank.
fn sorted_common(a: &[usize], b: &[usize]) -> Option<usize> {
    let (mut x, mut y) = (0, 0);
    let mut found = None;
    while x < a.len() && y < b.len() {
        match a[x].cmp(&b[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                debug_assert!(found.is_none(), "sets share two elements");
                found = Some(a[x]);
                x += 1;
                y += 1;
            }
        }
    }
    found
}

impl TriangleBlockDist {
    /// Build the distribution for a prime `c` and validate it.
    ///
    /// ```
    /// use syrk_core::TriangleBlockDist;
    /// let d = TriangleBlockDist::new(3); // Table 1 of the paper
    /// assert_eq!(d.p(), 12);
    /// assert_eq!(d.r_set(3), &[1, 3, 7]);
    /// assert_eq!(d.q_set(6), &[0, 5, 7, 11]);
    /// assert_eq!(d.owner_of(7, 1), 3);
    /// ```
    pub fn new(c: usize) -> Self {
        assert!(
            is_prime(c),
            "triangle block distribution requires prime c (got {c})"
        );
        let p = c * (c + 1);
        let c2 = c * c;

        let fk = |k: usize, u: usize| -> usize {
            // f_k(u) = (⌊k/c⌋·(u−1) + k) mod c + c·u            (eq. 4)
            // u−1 may be −1; compute in i64 and wrap with rem_euclid.
            let t = (k / c) as i64 * (u as i64 - 1) + k as i64;
            t.rem_euclid(c as i64) as usize + c * u
        };

        // R_k (eq. 5).
        let mut r: Vec<Vec<usize>> = Vec::with_capacity(p);
        for k in 0..p {
            let mut set: Vec<usize> = if k < c2 {
                std::iter::once(k / c)
                    .chain((1..c).map(|u| fk(k, u)))
                    .collect()
            } else {
                (0..c).map(|u| (k - c2) * c + u).collect()
            };
            set.sort_unstable();
            debug_assert_eq!(set.len(), c, "R_{k} must have c elements");
            r.push(set);
        }

        // D_k (eq. 6).
        let mut d: Vec<Option<usize>> = Vec::with_capacity(p);
        for k in 0..p {
            let dk = if k < c {
                None
            } else if k < c2 {
                if k % c == 0 {
                    Some(k / c)
                } else {
                    Some(fk(k, k / c))
                }
            } else {
                let j = k - c2;
                Some(fk(c * j, j))
            };
            d.push(dk);
        }

        // Q_i (eq. 8) via h_i (eq. 7).
        let hi = |i: usize, qq: usize| -> usize {
            let t = i as i64 - ((i / c) as i64 - 1) * qq as i64;
            t.rem_euclid(c as i64) as usize + c * qq
        };
        let mut q: Vec<Vec<usize>> = Vec::with_capacity(c2);
        for i in 0..c2 {
            let mut set: Vec<usize> = if i < c {
                (0..c)
                    .map(|qq| c * i + qq)
                    .chain(std::iter::once(c2))
                    .collect()
            } else {
                (0..c)
                    .map(|qq| hi(i, qq))
                    .chain(std::iter::once(c2 + i / c))
                    .collect()
            };
            set.sort_unstable();
            debug_assert_eq!(set.len(), c + 1, "Q_{i} must have c+1 elements");
            q.push(set);
        }

        Self::from_sets(c, r, d, Some(q)).expect("eqs. (4)–(8) yield a valid distribution")
    }

    /// Build the distribution for any order `c` with a known construction:
    /// the paper's cyclic scheme for prime `c`, or an affine plane over
    /// GF(c) for prime powers (a valid scheme the paper's §5.2.1 alludes
    /// to — primality is sufficient, not necessary). Returns `None` when
    /// no construction is available (e.g. `c = 6, 10`).
    pub fn for_order(c: usize) -> Option<Self> {
        if is_prime(c) {
            Some(Self::new(c))
        } else {
            Self::new_prime_power(c)
        }
    }

    /// Build from the affine plane AG(2, c) for a prime power `c`
    /// (supports c = 4, 8, 9, 16, 25, 27, 32, 49). Lines of the plane are
    /// the row block sets; diagonal blocks are matched to incident lines.
    pub fn new_prime_power(c: usize) -> Option<Self> {
        let r = affine_plane_lines(c)?;
        let d = match_diagonals(c, &r);
        Some(Self::from_sets(c, r, d, None).expect("an affine plane is a valid distribution"))
    }

    /// The one-rank distribution, Algorithm 1's slice in Algorithm 3's grid
    /// (`p1 = 1`): one row block, `R_0 = Q_0 = {0}`, `D_0 = 0`. Its order
    /// is 1 (one row block per rank and no off-diagonal block), but it has
    /// one rank where every order-`c` distribution has `c(c+1)`;
    /// [`for_order`](Self::for_order) never builds it.
    pub(crate) fn one_rank() -> Self {
        let dist = TriangleBlockDist {
            c: 1,
            r: vec![vec![0]],
            d: vec![Some(0)],
            q: vec![vec![0]],
            diag_owner: vec![0],
        };
        debug_assert_eq!(dist.validate(), Ok(()));
        dist
    }

    /// Assemble the distribution from row block sets + diagonal assignment
    /// and validate it. `q_sets`, if given (the cyclic construction's
    /// eq. (8)), is cross-checked against the reverse index of `r` by
    /// [`validate`](Self::validate); otherwise it *is* that index.
    fn from_sets(
        c: usize,
        r: Vec<Vec<usize>>,
        d: Vec<Option<usize>>,
        q_sets: Option<Vec<Vec<usize>>>,
    ) -> Result<Self, String> {
        let p = c * (c + 1);
        assert_eq!(r.len(), p);
        assert_eq!(d.len(), p);
        let mut dist = TriangleBlockDist {
            c,
            r,
            d,
            q: Vec::new(),
            diag_owner: Vec::new(),
        };
        // Everything else indexes by block, so the range check comes first.
        dist.check_row_sets()?;
        dist.q = q_sets.unwrap_or_else(|| dist.reverse_index());
        dist.diag_owner = dist.diag_owners()?;
        dist.validate()?;
        Ok(dist)
    }

    /// `|R_k| = c`, sorted and distinct, every entry a block index.
    fn check_row_sets(&self) -> Result<(), String> {
        for (k, rk) in self.r.iter().enumerate() {
            if rk.len() != self.c || rk.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("R_{k} is not a sorted c-set: {rk:?}"));
            }
            if let Some(&max) = rk.last().filter(|&&max| max >= self.num_blocks()) {
                return Err(format!("R_{k} contains out-of-range block {max}"));
            }
        }
        Ok(())
    }

    /// The owner of every diagonal block, from `D`: `D_k ⊆ R_k` (which
    /// bounds it), no block claimed twice, none left out.
    fn diag_owners(&self) -> Result<Vec<usize>, String> {
        let mut owner = vec![usize::MAX; self.num_blocks()];
        for (k, dk) in self.d.iter().enumerate() {
            if let Some(i) = *dk {
                if !self.r[k].contains(&i) {
                    return Err(format!("D_{k} = {{{i}}} ⊄ R_{k}"));
                }
                if owner[i] != usize::MAX {
                    let first = owner[i];
                    return Err(format!(
                        "diagonal block {i} claimed by both {first} and {k}"
                    ));
                }
                owner[i] = k;
            }
        }
        match owner.iter().position(|&k| k == usize::MAX) {
            Some(i) => Err(format!("diagonal block {i} has no owner")),
            None => Ok(owner),
        }
    }

    /// `{k : i ∈ R_k}` for every block row `i`, in one pass over `R`
    /// (ranks ascend, so every set comes out sorted).
    fn reverse_index(&self) -> Vec<Vec<usize>> {
        let mut q = vec![Vec::with_capacity(self.c + 1); self.num_blocks()];
        for (k, rk) in self.r.iter().enumerate() {
            for &i in rk {
                q[i].push(k);
            }
        }
        q
    }

    /// The prime block parameter `c`.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Number of processors `P = c(c+1)` (1 for the one-rank
    /// distribution).
    pub fn p(&self) -> usize {
        self.r.len()
    }

    /// Number of block rows/columns `c²`.
    pub fn num_blocks(&self) -> usize {
        self.c * self.c
    }

    /// The row block set `R_k` (sorted). The indices of the row blocks of
    /// `A` processor `k` needs for its computation.
    pub fn r_set(&self, k: usize) -> &[usize] {
        &self.r[k]
    }

    /// The diagonal block assigned to `k` (eq. 6), if any.
    pub fn d_block(&self, k: usize) -> Option<usize> {
        self.d[k]
    }

    /// The processor set `Q_i` (sorted): the `c+1` ranks sharing row
    /// block `A_i`.
    pub fn q_set(&self, i: usize) -> &[usize] {
        &self.q[i]
    }

    /// Owner of off-diagonal block `(i, j)`; requires `i > j`. The one
    /// rank of `Q_i ∩ Q_j`, found by an O(c) merge — no driver asks, so
    /// no c⁴-entry table is kept for it.
    pub fn owner_of(&self, i: usize, j: usize) -> usize {
        assert!(j < i && i < self.num_blocks(), "owner_of needs j < i < c²");
        sorted_common(&self.q[i], &self.q[j]).expect("validated: every block has an owner")
    }

    /// Owner of diagonal block `(i, i)`.
    pub fn diag_owner_of(&self, i: usize) -> usize {
        assert!(i < self.num_blocks());
        self.diag_owner[i]
    }

    /// The off-diagonal block pairs `(i, j)` with `i > j` owned by `k`,
    /// in row-major order of the triangle.
    pub fn blocks_of(&self, k: usize) -> Vec<(usize, usize)> {
        let rk = &self.r[k];
        let mut out = Vec::with_capacity(self.c * (self.c - 1) / 2);
        for (a, &i) in rk.iter().enumerate() {
            for &j in &rk[..a] {
                out.push((i, j));
            }
        }
        out
    }

    /// Position of rank `k` within `Q_i` (its chunk index for `A_i`).
    /// Panics if `k ∉ Q_i`.
    pub(crate) fn chunk_index(&self, i: usize, k: usize) -> usize {
        self.q[i]
            .iter()
            .position(|&m| m == k)
            .unwrap_or_else(|| panic!("rank {k} is not in Q_{i}"))
    }

    /// Check every structural invariant of the distribution:
    ///
    /// 1. every off-diagonal block `(i, j)`, `i > j`, has exactly one owner;
    /// 2. every diagonal block has exactly one owner and `D_k ⊆ R_k`;
    /// 3. `|R_k| = c` with distinct in-range entries, so each processor
    ///    owns exactly `c(c−1)/2` off-diagonal blocks; `|Q_i| = c+1`
    ///    (with `|R_k| = c`, equivalent to 1 for block row `i`);
    /// 4. `Q_i = {k : i ∈ R_k}` (the two indexings agree).
    ///
    /// O(c⁴) time — every block pair is visited once — and O(c²) space.
    pub fn validate(&self) -> Result<(), String> {
        let (c2, p) = (self.num_blocks(), self.p());
        self.check_row_sets()?;
        self.diag_owners()?;
        // Cross-check eq. (8) against the reverse index of eq. (5).
        for (i, (qi, derived)) in self.q.iter().zip(self.reverse_index()).enumerate() {
            if *qi != derived {
                return Err(format!("Q_{i} = {qi:?} but {{k : i ∈ R_k}} = {derived:?}"));
            }
        }
        // Sweep block row i: each k ∈ Q_i claims the pairs (i, j), j ∈ R_k,
        // j < i. `claim[j] = i·P + k` marks the claim for this sweep only,
        // so the table is never cleared.
        let mut claim = vec![usize::MAX; c2];
        for (i, qi) in self.q.iter().enumerate() {
            let mut claimed = 0;
            for &k in qi {
                for &j in self.r[k].iter().take_while(|&&j| j < i) {
                    if claim[j] / p == i {
                        let first = claim[j] % p;
                        return Err(format!("block ({i},{j}) claimed by both {first} and {k}"));
                    }
                    claim[j] = i * p + k;
                    claimed += 1;
                }
            }
            if claimed < i {
                let j = (0..i)
                    .find(|&j| claim[j] / p != i)
                    .expect("fewer than i claims leave a gap");
                return Err(format!("block ({i},{j}) has no owner"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TriangleBlockDist {
        /// The unique row block shared by distinct ranks `k` and `k'`
        /// (`R_k ∩ R_k'`), or `None` if they share none.
        fn common_block(&self, k: usize, k2: usize) -> Option<usize> {
            debug_assert_ne!(k, k2);
            sorted_common(&self.r[k], &self.r[k2])
        }
    }

    /// Table 1 of the paper, verbatim (c = 3, P = 12).
    #[test]
    fn table1_row_block_sets() {
        let d = TriangleBlockDist::new(3);
        let expected_r: [&[usize]; 12] = [
            &[0, 3, 6],
            &[0, 4, 7],
            &[0, 5, 8],
            &[1, 3, 7],
            &[1, 4, 8],
            &[1, 5, 6],
            &[2, 3, 8],
            &[2, 4, 6],
            &[2, 5, 7],
            &[0, 1, 2],
            &[3, 4, 5],
            &[6, 7, 8],
        ];
        for (k, want) in expected_r.iter().enumerate() {
            assert_eq!(d.r_set(k), *want, "R_{k}");
        }
    }

    #[test]
    fn table1_diagonal_blocks() {
        let d = TriangleBlockDist::new(3);
        let expected_d: [Option<usize>; 12] = [
            None,
            None,
            None,
            Some(1),
            Some(4),
            Some(5),
            Some(2),
            Some(6),
            Some(7),
            Some(0),
            Some(3),
            Some(8),
        ];
        for (k, want) in expected_d.iter().enumerate() {
            assert_eq!(d.d_block(k), *want, "D_{k}");
        }
    }

    #[test]
    fn table1_processor_sets() {
        let d = TriangleBlockDist::new(3);
        let expected_q: [&[usize]; 9] = [
            &[0, 1, 2, 9],
            &[3, 4, 5, 9],
            &[6, 7, 8, 9],
            &[0, 3, 6, 10],
            &[1, 4, 7, 10],
            &[2, 5, 8, 10],
            &[0, 5, 7, 11],
            &[1, 3, 8, 11],
            &[2, 4, 6, 11],
        ];
        for (i, want) in expected_q.iter().enumerate() {
            assert_eq!(d.q_set(i), *want, "Q_{i}");
        }
    }

    #[test]
    fn figure2_block_owners() {
        // Spot-check ownership against Fig. 2: processor 3 owns C_31,
        // C_71, C_73 (R_3 = {1,3,7}).
        let d = TriangleBlockDist::new(3);
        assert_eq!(d.owner_of(3, 1), 3);
        assert_eq!(d.owner_of(7, 1), 3);
        assert_eq!(d.owner_of(7, 3), 3);
        assert_eq!(d.blocks_of(3), vec![(3, 1), (7, 1), (7, 3)]);
        // Last-c processors own the diagonal zones: rank 11 owns the
        // blocks within rows/cols {6,7,8}.
        assert_eq!(d.owner_of(7, 6), 11);
        assert_eq!(d.owner_of(8, 6), 11);
        assert_eq!(d.owner_of(8, 7), 11);
    }

    #[test]
    fn valid_for_all_small_primes() {
        for c in [2usize, 3, 5, 7, 11, 13] {
            let d = TriangleBlockDist::new(c);
            assert!(d.validate().is_ok(), "c = {c}");
        }
    }

    /// Table 1's sets with one hand-made defect, through `from_sets`.
    fn corrupted(
        defect: impl FnOnce(&mut Vec<Vec<usize>>, &mut Vec<Option<usize>>, &mut Vec<Vec<usize>>),
        with_q: bool,
    ) -> String {
        let good = TriangleBlockDist::new(3);
        let mut r: Vec<Vec<usize>> = (0..12).map(|k| good.r_set(k).to_vec()).collect();
        let mut d: Vec<Option<usize>> = (0..12).map(|k| good.d_block(k)).collect();
        let mut q: Vec<Vec<usize>> = (0..9).map(|i| good.q_set(i).to_vec()).collect();
        defect(&mut r, &mut d, &mut q);
        TriangleBlockDist::from_sets(3, r, d, with_q.then_some(q)).expect_err("defect accepted")
    }

    #[test]
    fn validate_rejects_every_kind_of_defect() {
        // R_0 = {0,3,6} (rank 0 owns no diagonal block, so only the pair
        // invariant is touched). 6 → 4: rank 1's block (4,0) gets a second
        // claimant before the sweep reaches the orphaned row 6.
        let e = corrupted(|r, _, _| r[0] = vec![0, 3, 4], false);
        assert_eq!(e, "block (4,0) claimed by both 0 and 1");
        // 6 → 7: blocks (6,0) and (6,3) lose their only owner first.
        let e = corrupted(|r, _, _| r[0] = vec![0, 3, 7], false);
        assert_eq!(e, "block (6,0) has no owner");
        // Eq. (8) disagreeing with the reverse index of eq. (5).
        let e = corrupted(|_, _, q| q[0] = vec![0, 1, 2, 10], true);
        assert!(e.starts_with("Q_0 = [0, 1, 2, 10] but"), "{e}");
        // Malformed row block sets are caught before anything indexes by them.
        let e = corrupted(|r, _, _| r[11] = vec![6, 7, 9], false);
        assert_eq!(e, "R_11 contains out-of-range block 9");
        let e = corrupted(|r, _, _| r[11] = vec![6, 8, 7], false);
        assert!(e.starts_with("R_11 is not a sorted c-set"), "{e}");
        // Diagonal assignment: outside R_k, claimed twice, or missing.
        let e = corrupted(|_, d, _| d[3] = Some(2), false);
        assert_eq!(e, "D_3 = {2} ⊄ R_3");
        let e = corrupted(|_, d, _| d[0] = Some(0), false);
        assert_eq!(e, "diagonal block 0 claimed by both 0 and 9");
        let e = corrupted(|_, d, _| d[9] = None, false);
        assert_eq!(e, "diagonal block 0 has no owner");
    }

    #[test]
    fn the_one_rank_distribution_is_valid_and_not_an_order() {
        let d = TriangleBlockDist::one_rank();
        assert_eq!((d.p(), d.num_blocks(), d.c()), (1, 1, 1));
        assert_eq!(
            (d.r_set(0), d.q_set(0), d.d_block(0)),
            (&[0][..], &[0][..], Some(0))
        );
        assert!(d.blocks_of(0).is_empty());
        assert!(TriangleBlockDist::for_order(1).is_none());
    }

    #[test]
    #[should_panic(expected = "requires prime c")]
    fn composite_c_rejected() {
        let _ = TriangleBlockDist::new(4);
    }

    #[test]
    fn exactly_c_ranks_own_no_diagonal() {
        for c in [2usize, 3, 5, 7] {
            let d = TriangleBlockDist::new(c);
            let none = (0..d.p()).filter(|&k| d.d_block(k).is_none()).count();
            assert_eq!(none, c, "c = {c}: {none} diagonal-less ranks");
        }
    }

    #[test]
    fn common_block_matches_q_sets() {
        let d = TriangleBlockDist::new(5);
        for k in 0..d.p() {
            for k2 in 0..d.p() {
                if k == k2 {
                    continue;
                }
                let via_r = d.common_block(k, k2);
                let via_q = (0..d.num_blocks())
                    .find(|&i| d.q_set(i).contains(&k) && d.q_set(i).contains(&k2));
                assert_eq!(via_r, via_q, "ranks {k},{k2}");
            }
        }
    }

    #[test]
    fn some_rank_pairs_share_nothing() {
        // The paper: "a small subset of pairs of processors do not appear
        // in any Q_i sets".
        let d = TriangleBlockDist::new(3);
        let lonely = (0..d.p())
            .flat_map(|k| (k + 1..d.p()).map(move |k2| (k, k2)))
            .filter(|&(k, k2)| d.common_block(k, k2).is_none())
            .count();
        assert!(lonely > 0);
        // Ranks 9,10,11 (the diagonal-zone owners) pairwise share nothing:
        assert_eq!(d.common_block(9, 10), None);
        assert_eq!(d.common_block(10, 11), None);
    }

    #[test]
    fn chunk_index_is_a_bijection_per_block() {
        let d = TriangleBlockDist::new(3);
        for i in 0..d.num_blocks() {
            let mut seen = vec![false; d.c() + 1];
            for &k in d.q_set(i) {
                let pos = d.chunk_index(i, k);
                assert!(!seen[pos]);
                seen[pos] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    #[should_panic(expected = "is not in Q_")]
    fn chunk_index_rejects_nonmembers() {
        let d = TriangleBlockDist::new(3);
        // Q_0 = {0,1,2,9}; rank 3 is not a member.
        let _ = d.chunk_index(0, 3);
    }
}
