//! Distribution stress tests: larger primes, prime powers, and the
//! structural theorems connecting `R_k` / `Q_i` / owner maps.

use syrk_core::{
    affine_plane_lines, footprint, GridOwner, IterationOwner, Plan, TriangleBlockDist,
};

#[test]
fn large_prime_distributions_validate() {
    for c in [13usize, 17, 19] {
        let d = TriangleBlockDist::new(c);
        assert!(d.validate().is_ok(), "c = {c}");
        assert_eq!(d.p(), c * (c + 1));
        // Block count bookkeeping: Σ_k |blocks_of(k)| = c²(c²−1)/2.
        let total: usize = (0..d.p()).map(|k| d.blocks_of(k).len()).sum();
        let c2 = c * c;
        assert_eq!(total, c2 * (c2 - 1) / 2);
    }
}

#[test]
fn gf16_distribution_validates() {
    let d = TriangleBlockDist::new_prime_power(16).expect("GF(16) exists");
    assert!(d.validate().is_ok());
    assert_eq!(d.p(), 16 * 17);
    assert_eq!(d.num_blocks(), 256);
}

#[test]
fn every_pair_of_row_blocks_shares_exactly_one_owner() {
    // The defining property (a.k.a. pair coverage of the affine plane):
    // for any i > j there is exactly one k with {i, j} ⊆ R_k, and the
    // on-demand `owner_of` (an O(c) merge of Q_i and Q_j, no stored table)
    // names it. Brute force over every supported order up to 16, plus the
    // two larger prime powers: scan every R_k into a dense pair table.
    for c in (2..=16).chain([25, 27]) {
        let Some(d) = TriangleBlockDist::for_order(c) else {
            continue;
        };
        let c2 = d.num_blocks();
        let mut owner = vec![usize::MAX; c2 * c2];
        for k in 0..d.p() {
            for (i, j) in d.blocks_of(k) {
                let slot = &mut owner[i * c2 + j];
                assert_eq!(*slot, usize::MAX, "c={c}: pair ({i},{j}) claimed twice");
                *slot = k;
            }
        }
        for i in 0..c2 {
            for j in 0..i {
                assert_eq!(d.owner_of(i, j), owner[i * c2 + j], "c={c}: ({i},{j})");
            }
            let diag: Vec<usize> = (0..d.p()).filter(|&k| d.d_block(k) == Some(i)).collect();
            assert_eq!(diag, [d.diag_owner_of(i)], "c={c}: diagonal block {i}");
        }
    }
}

#[test]
fn q_sets_partition_work_evenly() {
    // Every block index appears in exactly c+1 R_k sets, so the conformal
    // A distribution stores each element exactly once.
    for d in [
        TriangleBlockDist::new(7),
        TriangleBlockDist::new_prime_power(8).unwrap(),
    ] {
        let c = d.c();
        let mut appearances = vec![0usize; d.num_blocks()];
        for k in 0..d.p() {
            for &i in d.r_set(k) {
                appearances[i] += 1;
            }
        }
        assert!(appearances.iter().all(|&a| a == c + 1), "c = {c}");
    }
}

#[test]
fn affine_lines_have_the_projective_structure() {
    // Lines through a fixed point form a pencil of q+1 lines covering all
    // other q²−1 points exactly once.
    let q = 5;
    let lines = affine_plane_lines(q).unwrap();
    let pt = 7usize;
    let through: Vec<&Vec<usize>> = lines.iter().filter(|l| l.contains(&pt)).collect();
    assert_eq!(through.len(), q + 1);
    let mut covered = vec![0usize; q * q];
    for l in through {
        for &x in l {
            if x != pt {
                covered[x] += 1;
            }
        }
    }
    covered[pt] = 1;
    assert!(covered.iter().all(|&c| c == 1));
}

#[test]
fn affine_footprint_balances_like_cyclic() {
    // Lemma 5 + imbalance bounds hold on an affine-plane distribution
    // (c = 4 is a prime power) exactly as on the cyclic one.
    let (n1, n2) = (16usize, 6usize);
    let owner = GridOwner::new(Plan::TwoD { c: 4 }, n1, n2).unwrap();
    let fp = footprint(n1, n2, &owner);
    assert_eq!(fp.total_mults(), (n1 * (n1 - 1) * n2 / 2) as u64);
    assert!(fp.check_lemma5(n1, n2).is_ok());
    let max = *fp.mults.iter().max().unwrap() as f64;
    let avg = fp.total_mults() as f64 / owner.ranks() as f64;
    assert!(max / avg < 1.6, "imbalance {}", max / avg);
}
