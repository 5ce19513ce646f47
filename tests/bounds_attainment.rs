//! Integration: measured communication of each algorithm tracks the
//! Theorem 1 lower bound in its own regime — the paper's optimality
//! claims, checked end-to-end on the simulated machine.

use syrk_core::{
    alg1d_predicted_cost, alg2d_tight_cost, gemm_2d, syrk_lower_bound, try_syrk_1d, try_syrk_2d,
    try_syrk_3d, BoundCase, Lemma6Problem,
};
use syrk_dense::seeded_matrix;
use syrk_machine::CostModel;

#[test]
fn case1_1d_attains_within_diagonal_slack() {
    // Measured/bound → (n1+1)/(n1−1) for the 1D algorithm (the inclusive
    // diagonal is its only excess over the strict-triangle bound).
    for (n1, n2, p) in [(40usize, 400usize, 4usize), (80, 1200, 8)] {
        let a = seeded_matrix::<f64>(n1, n2, 3);
        let run = try_syrk_1d(&a, p, CostModel::bandwidth_only(), None).unwrap();
        let b = syrk_lower_bound(n1, n2, p);
        assert_eq!(b.case, BoundCase::Case1);
        let measured = run.cost.max_words_sent() as f64;
        assert!(
            measured >= b.communicated() * 0.999,
            "below a valid lower bound?!"
        );
        let slack = (n1 as f64 + 1.0) / (n1 as f64 - 1.0);
        assert!(
            measured <= b.communicated() * slack * 1.1 + p as f64,
            "({n1},{n2},{p}): measured {measured}, bound {}",
            b.communicated()
        );
        // And eq. (3) predicts the measurement to within rounding.
        assert!((measured - alg1d_predicted_cost(n1, p)).abs() <= p as f64);
    }
}

#[test]
fn case2_2d_attains_the_tight_cost() {
    for (n1, n2, c) in [(120usize, 4usize, 2usize), (180, 5, 3), (300, 6, 5)] {
        let a = seeded_matrix::<f64>(n1, n2, 4);
        let run = try_syrk_2d(&a, c, CostModel::bandwidth_only(), None).unwrap();
        let p = c * (c + 1);
        let b = syrk_lower_bound(n1, n2, p);
        assert_eq!(b.case, BoundCase::Case2, "({n1},{n2},{c})");
        let measured = run.cost.max_words_sent() as f64;
        let tight = alg2d_tight_cost(n1, n2, c);
        // Chunk rounding moves the measurement by at most one chunk per
        // exchange partner (c² partners).
        assert!(
            (measured - tight).abs() <= (c * c) as f64,
            "({n1},{n2},{c}): measured {measured} vs tight {tight}"
        );
        // Never below the lower bound (sanity of the bound itself).
        assert!(measured >= b.communicated() * 0.95 - (c * c) as f64);
    }
}

#[test]
fn case3_3d_tracks_bound_within_small_grid_constants() {
    for (n1, n2, c, p2) in [(48usize, 96usize, 2usize, 4usize), (90, 90, 3, 3)] {
        let a = seeded_matrix::<f64>(n1, n2, 5);
        let run = try_syrk_3d(&a, c, p2, CostModel::bandwidth_only(), None).unwrap();
        let p = c * (c + 1) * p2;
        let b = syrk_lower_bound(n1, n2, p);
        assert_eq!(b.case, BoundCase::Case3, "({n1},{n2},{c},{p2})");
        let ratio = run.cost.max_words_sent() as f64 / b.communicated();
        // Small prime grids can't hit the asymptotic constant, but must
        // stay within a factor ~2 of it and above 1 (it IS a bound).
        assert!(ratio >= 0.98, "measured below the lower bound: {ratio}");
        assert!(ratio <= 2.2, "too far above the bound: {ratio}");
    }
}

#[test]
fn syrk_beats_gemm_by_factor_two_in_case2() {
    // The headline, as an assertion: normalized communication constants.
    let (n1, n2) = (840usize, 8usize);
    let a = seeded_matrix::<f64>(n1, n2, 6);
    let s = try_syrk_2d(&a, 5, CostModel::bandwidth_only(), None).unwrap(); // P = 30
    let g = gemm_2d(&a, 6, CostModel::bandwidth_only()).unwrap(); // P = 36
    let sc = s.cost.max_words_sent() as f64 * 30f64.sqrt() / (n1 * n2) as f64;
    let gc = g.cost.max_words_sent() as f64 * 6.0 / (n1 * n2) as f64;
    assert!(sc < 1.1, "SYRK constant {sc} should be ~1");
    assert!(gc > 1.5 && gc < 2.1, "GEMM constant {gc} should be ~2");
    assert!(gc / sc > 1.5, "factor-2 headline lost: {}", gc / sc);
}

#[test]
fn theorem1_w_is_lemma6_optimum_plus_the_case_gap() {
    // Both sides read one case rule; what separates them is Theorem 1's
    // A-side term n1·n2, where Lemma 6's optimum has n2·√(n1(n1−1)):
    // W − (x1* + x2*) = n2·(n1 − √(n1(n1−1))) over P in Case 1, over √P
    // in Case 2, and 0 in Case 3.
    use BoundCase::{Case1, Case2, Case3};
    for (n1, n2, p, case) in [
        (16usize, 4096usize, 8usize, Case1),
        (16, 4096, 2048, Case3),
        (4096, 16, 64, Case2),
        (4096, 16, 100_000, Case3),
        (512, 512, 12, Case3),
        // Case 1 | 3 at P = n2/√(n1(n1−1)) ≈ 264.4.
        (16, 4096, 264, Case1),
        (16, 4096, 265, Case3),
        // Case 2 | 3 at P = n1(n1−1)/n2² = 65520, which Case 2 includes.
        (4096, 16, 65_520, Case2),
        (4096, 16, 65_521, Case3),
        // Case 1 | 2 where n1 passes n2.
        (512, 512, 1, Case1),
        (513, 512, 1, Case2),
    ] {
        let b = syrk_lower_bound(n1, n2, p);
        let pr = Lemma6Problem::new(n1 as u64, n2 as u64, p as u64);
        assert_eq!((b.case, pr.case()), (case, case), "({n1},{n2},{p})");
        let (n1f, n2f, pf) = (n1 as f64, n2 as f64, p as f64);
        let a_gap = n2f * (n1f - (n1f * (n1f - 1.0)).sqrt());
        let gap = match case {
            Case1 => a_gap / pf,
            Case2 => a_gap / pf.sqrt(),
            Case3 => 0.0,
        };
        let got = b.w - pr.optimal_value();
        assert!(
            (got - gap).abs() <= 1e-9 * b.w,
            "({n1},{n2},{p}) {case:?}: W − (x1* + x2*) = {got}, expected {gap}"
        );
    }
}

#[test]
fn w_is_continuous_across_the_case_switch() {
    // Lemma 6's note: "the optimal solutions coincide at boundary points
    // between cases". Evaluate both case formulas AT the boundary value
    // of P and require agreement.
    let w_case1 = |n1: f64, n2: f64, p: f64| n1 * n2 / p + n1 * (n1 - 1.0) / 2.0;
    let w_case2 = |n1: f64, n2: f64, p: f64| n1 * n2 / p.sqrt() + n1 * (n1 - 1.0) / (2.0 * p);
    let w_case3 = |n1: f64, n2: f64, p: f64| 1.5 * (n1 * (n1 - 1.0) * n2 / p).powf(2.0 / 3.0);

    // Case 1 ↔ Case 3 boundary: P* = n2/√(n1(n1−1)).
    let (n1, n2) = (64f64, 4096f64);
    let p_star = n2 / (n1 * (n1 - 1.0)).sqrt();
    let (w1, w3) = (w_case1(n1, n2, p_star), w_case3(n1, n2, p_star));
    // Agreement up to the n1 vs sqrt(n1(n1-1)) discount (rel ~ 1/(2n1)):
    // the underlying Lemma 6 solutions coincide exactly; Theorem 1's
    // Case 1 strengthens the A-term from n2*sqrt(n1(n1-1))/P to n1n2/P.
    assert!(
        ((w1 - w3) / w1).abs() < 1.0 / (n1 - 1.0),
        "Case1/Case3 boundary mismatch: {w1} vs {w3}"
    );

    // Case 2 ↔ Case 3 boundary: P* = n1(n1−1)/n2².
    let (n1, n2) = (4096f64, 16f64);
    let p_star = n1 * (n1 - 1.0) / (n2 * n2);
    let (w2, w3) = (w_case2(n1, n2, p_star), w_case3(n1, n2, p_star));
    assert!(
        ((w2 - w3) / w2).abs() < 1.0 / (n1 - 1.0),
        "Case2/Case3 boundary mismatch: {w2} vs {w3}"
    );

    // And across integer P the implemented bound is non-increasing.
    let mut prev = f64::INFINITY;
    for p in 1..500 {
        let w = syrk_lower_bound(64, 4096, p).w;
        assert!(w <= prev + 1e-9, "W not monotone at P={p}");
        prev = w;
    }
}
