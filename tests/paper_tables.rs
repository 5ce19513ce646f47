//! Integration: the paper's concrete artifacts — Table 1, Fig. 2/3
//! structure, the factor-2 headline, and the experiment harness itself.

use syrk_core::{gemm_lower_bound, syrk_lower_bound, TriangleBlockDist};

#[test]
fn table1_exact_reproduction() {
    // The full Table 1 of the paper (c = 3, P = 12), regenerated from
    // eqs. (4)–(8) and compared entry by entry.
    let d = TriangleBlockDist::new(3);
    let expected: [(&[usize], Option<usize>); 12] = [
        (&[0, 3, 6], None),
        (&[0, 4, 7], None),
        (&[0, 5, 8], None),
        (&[1, 3, 7], Some(1)),
        (&[1, 4, 8], Some(4)),
        (&[1, 5, 6], Some(5)),
        (&[2, 3, 8], Some(2)),
        (&[2, 4, 6], Some(6)),
        (&[2, 5, 7], Some(7)),
        (&[0, 1, 2], Some(0)),
        (&[3, 4, 5], Some(3)),
        (&[6, 7, 8], Some(8)),
    ];
    for (k, (rk, dk)) in expected.iter().enumerate() {
        assert_eq!(d.r_set(k), *rk, "R_{k}");
        assert_eq!(d.d_block(k), *dk, "D_{k}");
    }
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
    for (i, qi) in expected_q.iter().enumerate() {
        assert_eq!(d.q_set(i), *qi, "Q_{i}");
    }
}

#[test]
fn figure2_worked_examples_from_the_text() {
    let d = TriangleBlockDist::new(3);
    // "R_3 = {1, 3, 7} and processor 3 is assigned blocks C31, C71, C73."
    assert_eq!(d.blocks_of(3), vec![(3, 1), (7, 1), (7, 3)]);
    // "D_7 = {6}, as ... the processor of rank 7 owns the block (6, 2)."
    assert_eq!(d.owner_of(6, 2), 7);
    assert_eq!(d.d_block(7), Some(6));
    // "Q_6 = {0, 5, 7, 11} ... row block 6 of A is evenly distributed
    // among processors {0, 5, 7, 11}."
    assert_eq!(d.q_set(6), &[0, 5, 7, 11]);
}

#[test]
fn figure3_grid_structure() {
    // Fig. 3: p1 = 6 (c = 2), p2 = 3. Four row blocks; each Q_i has 3
    // members; every rank owns exactly one off-diagonal block
    // (c(c−1)/2 = 1) except none — check counts.
    let d = TriangleBlockDist::new(2);
    assert_eq!(d.p(), 6);
    assert_eq!(d.num_blocks(), 4);
    for k in 0..6 {
        assert_eq!(d.blocks_of(k).len(), 1, "rank {k}");
    }
    for i in 0..4 {
        assert_eq!(d.q_set(i).len(), 3, "block {i}");
    }
    // c = 2 ranks own no diagonal block.
    assert_eq!((0..6).filter(|&k| d.d_block(k).is_none()).count(), 2);
}

#[test]
fn headline_factor_two_across_the_sweep() {
    // GEMM bound / SYRK bound → 2 in all three regimes as sizes grow.
    let big = [
        (1_000usize, 1_000_000usize, 100usize), // Case 1
        (1_000_000, 1_000, 10_000),             // Case 2
        (100_000, 100_000, 10_000_000),         // Case 3
    ];
    for (n1, n2, p) in big {
        let s = syrk_lower_bound(n1, n2, p);
        let g = gemm_lower_bound(n1, n2, p);
        let ratio = g.w / s.w;
        assert!(
            (ratio - 2.0).abs() < 0.02,
            "({n1},{n2},{p}) case {:?}: ratio {ratio}",
            s.case
        );
    }
}

#[test]
fn experiment_harness_regenerates_every_artifact() {
    // Smoke-run the registry end to end (the binary's code path).
    let all = syrk_bench_reexport::all();
    assert_eq!(all.len(), 20);
    // The cheap ones run here; the heavy ones have their own tests in
    // syrk-bench.
    for slug in ["fig1", "table1", "fig3", "bounds", "lemma6"] {
        let e = all.iter().find(|e| e.slug == slug).unwrap();
        let tables = (e.run)().unwrap();
        assert!(!tables.is_empty(), "{slug}");
        for t in tables {
            assert!(!t.rows.is_empty(), "{slug}: empty table");
            assert!(!t.render().is_empty());
            assert!(t.to_csv().lines().count() > t.rows.len());
        }
    }
}

// The root package doesn't depend on syrk-bench in [dependencies]; pull
// it in for this integration test only.
use syrk_bench as syrk_bench_reexport;
