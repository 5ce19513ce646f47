//! Integration: the prime-power generalization of the triangle block
//! distribution (affine planes over GF(q)). The paper's construction
//! needs prime `c`; these tests exercise grids the cyclic scheme cannot
//! build (c = 4 → P = 20, c = 8 → P = 72, c = 9 → P = 90).

use syrk_repro::core::{
    candidate_plans, constructible_orders, try_syrk_2d, try_syrk_3d, Plan, TriangleBlockDist,
};
use syrk_repro::dense::{max_abs_diff, seeded_matrix, syrk_full_reference, syrk_tolerance};
use syrk_repro::machine::CostModel;

#[test]
fn affine_distributions_validate() {
    for c in [4usize, 8, 9] {
        let d = TriangleBlockDist::new_prime_power(c)
            .unwrap_or_else(|| panic!("AG(2,{c}) construction should exist"));
        assert!(d.validate().is_ok(), "c = {c}");
        assert_eq!(d.p(), c * (c + 1));
        // Exactly c ranks carry no diagonal block, as in the prime case.
        let none = (0..d.p()).filter(|&k| d.d_block(k).is_none()).count();
        assert_eq!(none, c, "c = {c}");
    }
}

#[test]
fn no_construction_for_non_prime_powers() {
    assert!(TriangleBlockDist::for_order(6).is_none());
    assert!(TriangleBlockDist::for_order(10).is_none());
    assert!(TriangleBlockDist::for_order(12).is_none());
}

#[test]
fn syrk_2d_runs_on_a_c4_grid() {
    // P = 20 ranks — impossible with the paper's prime-only scheme.
    let (n1, n2) = (64usize, 6usize);
    let a = seeded_matrix::<f64>(n1, n2, 44);
    let run = try_syrk_2d(&a, 4, CostModel::bandwidth_only(), None).unwrap();
    let err = max_abs_diff(&run.c, &syrk_full_reference(&a));
    assert!(err <= syrk_tolerance::<f64>(n2, 1.0), "err {err}");
    // Communication shape unchanged: n1·n2/(c+1) words per rank.
    let tight = (n1 * n2) as f64 / 5.0;
    let measured = run.cost.max_words_sent() as f64;
    assert!(
        (measured - tight).abs() <= 16.0,
        "measured {measured} vs {tight}"
    );
}

#[test]
fn syrk_3d_runs_on_a_c4_grid() {
    let a = seeded_matrix::<f64>(32, 24, 45);
    let run = try_syrk_3d(&a, 4, 2, CostModel::bandwidth_only(), None).unwrap(); // P = 40
    let err = max_abs_diff(&run.c, &syrk_full_reference(&a));
    assert!(err <= syrk_tolerance::<f64>(24, 1.0), "err {err}");
}

#[test]
fn syrk_2d_runs_on_c8_and_c9_grids() {
    for c in [8usize, 9] {
        let n1 = c * c; // one row per block
        let a = seeded_matrix::<f64>(n1, 4, c as u64);
        let run = try_syrk_2d(&a, c, CostModel::bandwidth_only(), None).unwrap();
        let err = max_abs_diff(&run.c, &syrk_full_reference(&a));
        assert!(err <= syrk_tolerance::<f64>(4, 1.0), "c={c}: err {err}");
        assert_eq!(run.cost.num_ranks(), c * (c + 1));
    }
}

#[test]
fn planner_exploits_prime_power_grids() {
    // With a budget of 20–29 ranks, the best 2D grid is now c = 4
    // (P = 20) rather than c = 3 (P = 12).
    assert_eq!(constructible_orders(10), vec![2, 3, 4, 5, 7, 8, 9]);
    let plans = candidate_plans(25);
    assert!(plans.contains(&Plan::TwoD { c: 4 }));
    // Tall-skinny instance: c = 4 beats c = 3 on predicted cost.
    let rp = syrk_repro::plan(10_000, 8, 25);
    assert_eq!(rp.plan, Plan::TwoD { c: 4 }, "{:?}", rp.plan);
}
