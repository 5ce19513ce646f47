//! Integration: all three optimal algorithms plus all baselines compute
//! the same (correct) product across shapes, and the auto-planner always
//! delivers a verified result.

use syrk_repro::core::{
    gemm_1d, gemm_2d, gemm_3d, scalapack_syrk_2d, try_syrk_1d, try_syrk_2d, try_syrk_3d,
};
use syrk_repro::dense::{
    max_abs_diff, seeded_int_matrix, seeded_matrix, syrk_full_reference, syrk_tolerance,
};
use syrk_repro::{run_auto, CostModel};

#[test]
fn every_algorithm_agrees_with_the_reference() {
    let (n1, n2) = (36, 12);
    let a = seeded_matrix::<f64>(n1, n2, 1234);
    let reference = syrk_full_reference(&a);
    let tol = syrk_tolerance::<f64>(n2, 1.0);
    let m = CostModel::bandwidth_only;

    let runs = vec![
        ("Alg. 1", try_syrk_1d(&a, 6, m(), None).unwrap()),
        ("Alg. 2 c=2", try_syrk_2d(&a, 2, m(), None).unwrap()),
        ("Alg. 2 c=3", try_syrk_2d(&a, 3, m(), None).unwrap()),
        ("Alg. 3 2x3", try_syrk_3d(&a, 2, 3, m(), None).unwrap()),
        ("Alg. 3 3x2", try_syrk_3d(&a, 3, 2, m(), None).unwrap()),
        ("gemm_1d", gemm_1d(&a, 6, m()).unwrap()),
        ("gemm_2d", gemm_2d(&a, 3, m()).unwrap()),
        ("gemm_3d", gemm_3d(&a, 2, 3, m()).unwrap()),
        ("scalapack", scalapack_syrk_2d(&a, 3, m()).unwrap()),
    ];
    for (name, run) in runs {
        let err = max_abs_diff(&run.c, &reference);
        assert!(err <= tol, "{name}: err {err} > tol {tol}");
    }
}

#[test]
fn integer_inputs_make_all_algorithms_bit_exact() {
    // With small-integer inputs every sum is exact in f64, so reduction
    // order cannot matter: all algorithms agree *exactly*.
    let a = seeded_int_matrix::<f64>(24, 12, 3, 9);
    let reference = syrk_full_reference(&a);
    let m = CostModel::bandwidth_only;
    for (name, run) in [
        ("1d", try_syrk_1d(&a, 4, m(), None).unwrap()),
        ("2d", try_syrk_2d(&a, 2, m(), None).unwrap()),
        ("3d", try_syrk_3d(&a, 2, 2, m(), None).unwrap()),
    ] {
        assert_eq!(max_abs_diff(&run.c, &reference), 0.0, "{name}");
    }
}

#[test]
fn auto_planner_verified_across_a_grid_of_instances() {
    for (n1, n2) in [(12usize, 96usize), (96, 12), (30, 30)] {
        for p in [1usize, 3, 6, 12, 20] {
            let a = seeded_matrix::<f64>(n1, n2, (n1 * 1000 + n2 + p) as u64);
            let (plan, run) = run_auto(&a, p, CostModel::bandwidth_only()).unwrap();
            let err = max_abs_diff(&run.c, &syrk_full_reference(&a));
            assert!(
                err <= syrk_tolerance::<f64>(n2, 1.0),
                "({n1},{n2},P={p}) via {plan:?}: err {err}"
            );
            assert!(run.cost.num_ranks() <= p);
        }
    }
}

#[test]
fn output_is_symmetric() {
    let a = seeded_matrix::<f64>(20, 8, 77);
    for run in [
        try_syrk_2d(&a, 2, CostModel::bandwidth_only(), None).unwrap(),
        try_syrk_3d(&a, 2, 2, CostModel::bandwidth_only(), None).unwrap(),
    ] {
        for i in 0..20 {
            for j in 0..20 {
                assert_eq!(run.c[(i, j)], run.c[(j, i)], "asymmetry at ({i},{j})");
            }
        }
    }
}

#[test]
fn costs_scale_down_with_more_processors_in_each_family() {
    // Strong scaling within a family: more ranks ⇒ less data per rank.
    let a = seeded_matrix::<f64>(60, 120, 3);
    let m = CostModel::bandwidth_only;
    // 1D: words = (1−1/P)·n1(n1+1)/2 increases toward the packed size —
    // but per the paper that's the optimal *constant*; total per-rank
    // *flops* is what drops. Check flops monotone in P.
    let f4 = try_syrk_1d(&a, 4, m(), None).unwrap().cost.max_flops();
    let f8 = try_syrk_1d(&a, 8, m(), None).unwrap().cost.max_flops();
    assert!(f8 < f4);
    // 3D with growing p2 at fixed c: A-words per rank drop.
    let w2 = try_syrk_3d(&a, 2, 2, m(), None)
        .unwrap()
        .cost
        .max_words_sent();
    let w4 = try_syrk_3d(&a, 2, 4, m(), None)
        .unwrap()
        .cost
        .max_words_sent();
    assert!(
        w4 < w2,
        "3D A-communication must shrink with p2: {w4} vs {w2}"
    );
}

#[test]
fn gamma_model_charges_compute_on_the_clock() {
    let a = seeded_matrix::<f64>(24, 24, 8);
    let bw = try_syrk_2d(&a, 2, CostModel::bandwidth_only(), None).unwrap();
    let full = try_syrk_2d(
        &a,
        2,
        CostModel {
            alpha: 0.0,
            beta: 1.0,
            gamma: 1.0,
        },
        None,
    )
    .unwrap();
    assert!(full.cost.elapsed() > bw.cost.elapsed());
    assert_eq!(full.cost.max_words_sent(), bw.cost.max_words_sent());
}
