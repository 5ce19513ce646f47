//! Phase attribution survives scale: a 2D SYRK on `P = c(c+1)` ranks
//! still charges `allgather-A` exactly what eq. (10) says, up to the
//! 10302 ranks of `c = 101` — the regime Theorem 1's memory-independent
//! Case 2 lives in.

use std::time::Instant;

use syrk_core::{alg2d_tight_cost, try_syrk_2d, PHASE_ALLGATHER_A};
use syrk_dense::seeded_matrix;
use syrk_machine::CostModel;

/// `n1 = 4c ≤ c²` leaves most of the `c²` row blocks of `A` empty and
/// `n2 = 2(c+1)` keeps the per-pair chunks at a couple of words, so host
/// time is the machine's, not the kernels'. Unevenly filled row blocks
/// distort the per-rank *max* but never the *total*: every word of `A`
/// is exchanged exactly `c` times.
fn allgather_a_matches_eq10(c: usize) {
    let (n1, n2) = (4 * c, 2 * (c + 1));
    let p = c * (c + 1);
    let a = seeded_matrix::<f64>(n1, n2, 17);
    let run = try_syrk_2d(&a, c, CostModel::bandwidth_only(), None).expect("2D SYRK");
    assert_eq!(run.cost.num_ranks(), p);
    let table = run.cost.phase_table();
    let total = table.row(PHASE_ALLGATHER_A).expect("phase ran").total_words;
    assert_eq!(total, (c * n1 * n2) as u64, "allgather-A total is c·n1·n2");
    let mean = total as f64 / p as f64;
    assert!(
        (mean - alg2d_tight_cost(n1, n2, c)).abs() <= 1e-6,
        "mean {mean} words/rank vs eq. (10) {}",
        alg2d_tight_cost(n1, n2, c)
    );
    // Theorem 1's Case-2 term, n1·n2/√P, is the same up to √P/(c+1) ≈ 1.
    let ratio = mean / ((n1 * n2) as f64 / (p as f64).sqrt());
    assert!((0.5..=2.0).contains(&ratio), "ratio to n1·n2/√P: {ratio}");
}

#[test]
fn allgather_a_matches_eq10_at_992_ranks() {
    allgather_a_matches_eq10(31);
}

/// 9–15 s in release, ~40 s in debug on the 2-vCPU development host, so
/// release only, under the 60 s budget the run has always had.
#[test]
#[cfg_attr(debug_assertions, ignore = "10302 ranks: release only")]
fn allgather_a_matches_eq10_at_10302_ranks_within_a_minute() {
    let start = Instant::now();
    allgather_a_matches_eq10(101);
    let seconds = start.elapsed().as_secs_f64();
    assert!(seconds < 60.0, "10302-rank 2D SYRK took {seconds:.1} s");
}
