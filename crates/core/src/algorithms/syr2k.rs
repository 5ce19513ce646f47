//! Distributed SYR2K — the first of the paper's §6 future-work kernels
//! (`C = A·Bᵀ + B·Aᵀ`, symmetric output), run by SYRK's one grid driver
//! with both inputs as its operands.
//!
//! The symmetric-iteration-space argument carries over directly: with two
//! `n1 × n2` inputs, the 1D grid still communicates only the packed
//! output triangle (`(n1(n1+1)/2)(1 − 1/P)` words — unchanged from SYRK),
//! and every slice of more than one rank gathers both inputs' row blocks,
//! back to back in one message per partner (`2·n1n2/(c+1)` words in 2D —
//! exactly twice SYRK's input term, half of the `4·n1n2/√P` a GEMM-style
//! evaluation of the two products would move). A 3D grid moves both.

use syrk_dense::Matrix;
use syrk_machine::CostModel;

use super::common::{grid, SyrkRunResult};
use super::run::RunSpec;
use super::threed::run_grid;
use crate::error::SyrkError;
use crate::planner::Plan;

/// SYR2K on `plan`'s grid: Algorithm 3's slices gather the row blocks of
/// both inputs, and each off-diagonal block is `C_ij = A_i·B_jᵀ +
/// B_i·A_jᵀ` and each diagonal block a local SYR2K. The run is plain: no
/// faults, ABFT or recovery. Errors as [`run`](crate::run); `A` and `B`
/// of different shapes panic.
pub fn syr2k(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    plan: Plan,
    model: CostModel,
) -> Result<SyrkRunResult, SyrkError> {
    assert_eq!(
        b.shape(),
        a.shape(),
        "syr2k: A and B must have identical shapes"
    );
    let (dist, p2) = grid(plan)?;
    run_grid([a, b], &dist, p2, &RunSpec::new(plan, model)).map(|run| run.result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::{PHASE_ALLGATHER_A, PHASE_REDUCE_SCATTER_C};
    use syrk_dense::{max_abs_diff, seeded_int_matrix, seeded_matrix, syr2k_full_reference};

    fn syr2k_1d(a: &Matrix<f64>, b: &Matrix<f64>, p: usize) -> Result<SyrkRunResult, SyrkError> {
        syr2k(a, b, Plan::OneD { p }, CostModel::bandwidth_only())
    }

    fn syr2k_2d(a: &Matrix<f64>, b: &Matrix<f64>, c: usize) -> Result<SyrkRunResult, SyrkError> {
        syr2k(a, b, Plan::TwoD { c }, CostModel::bandwidth_only())
    }

    #[test]
    fn syr2k_1d_correct() {
        for &(n1, n2, p) in &[(6usize, 12usize, 3usize), (9, 7, 4), (16, 16, 1)] {
            let a = seeded_matrix::<f64>(n1, n2, 1);
            let b = seeded_matrix::<f64>(n1, n2, 2);
            let run = syr2k_1d(&a, &b, p).unwrap();
            let err = max_abs_diff(&run.c, &syr2k_full_reference(&a, &b));
            assert!(err < 1e-10, "({n1},{n2},{p}): {err}");
        }
    }

    #[test]
    fn syr2k_2d_correct() {
        for &(n1, n2, c) in &[(8usize, 5usize, 2usize), (18, 4, 3), (27, 6, 3)] {
            let a = seeded_int_matrix::<f64>(n1, n2, 4, 3);
            let b = seeded_int_matrix::<f64>(n1, n2, 4, 4);
            let run = syr2k_2d(&a, &b, c).unwrap();
            assert_eq!(
                max_abs_diff(&run.c, &syr2k_full_reference(&a, &b)),
                0.0,
                "({n1},{n2},c={c})"
            );
        }
    }

    #[test]
    fn syr2k_3d_is_exact_and_moves_twice_syrks_a() {
        // Algorithm 3's grid with two operands: each slice gathers both
        // inputs' row blocks in SYRK's messages, and the row
        // Reduce-Scatter moves the same C_k as SYRK's.
        for (n1, n2, c, p2) in [
            (8, 6, 2, 3),
            (8, 8, 2, 2),
            (9, 12, 3, 2),
            (12, 9, 2, 3),
            (10, 10, 2, 4),
            (36, 24, 3, 4),
        ] {
            let a = seeded_int_matrix::<f64>(n1, n2, 4, 5);
            let b = seeded_int_matrix::<f64>(n1, n2, 4, 6);
            let plan = Plan::ThreeD { c, p2 };
            let model = CostModel::bandwidth_only();
            let s2 = syr2k(&a, &b, plan, model).unwrap();
            let label = format!("({n1},{n2},c={c},p2={p2})");
            let err = max_abs_diff(&s2.c, &syr2k_full_reference(&a, &b));
            assert_eq!(err, 0.0, "{label}");
            let s1 = crate::run(&a, &RunSpec::new(plan, model)).unwrap().result;
            let words = |r: &SyrkRunResult, phase| r.cost.phase_max_words_sent(phase);
            let a_words = words(&s1, PHASE_ALLGATHER_A);
            assert!(a_words > 0, "{label}");
            assert_eq!(words(&s2, PHASE_ALLGATHER_A), 2 * a_words, "{label}");
            let c_words = words(&s1, PHASE_REDUCE_SCATTER_C);
            assert_eq!(words(&s2, PHASE_REDUCE_SCATTER_C), c_words, "{label}");
            assert_eq!(s2.cost.max_messages(), s1.cost.max_messages(), "{label}");
        }
    }

    #[test]
    fn syr2k_1d_communication_equals_syrk_1d() {
        // The §6 insight carried over: the output triangle is all that
        // moves, so SYR2K costs the same words as SYRK in 1D.
        let (n1, n2, p) = (20, 40, 5);
        let a = seeded_matrix::<f64>(n1, n2, 5);
        let b = seeded_matrix::<f64>(n1, n2, 6);
        let s2 = syr2k_1d(&a, &b, p).unwrap();
        let s1 = crate::try_syrk_1d(&a, p, CostModel::bandwidth_only(), None).unwrap();
        assert_eq!(s2.cost.max_words_sent(), s1.cost.max_words_sent());
        // Local flops double (two rank-k updates); the Reduce-Scatter
        // additions are unchanged (same output size).
        let rs_flops = ((p - 1) * n1 * (n1 + 1) / 2) as u64;
        assert_eq!(
            s2.cost.total_flops(),
            2 * (s1.cost.total_flops() - rs_flops) + rs_flops
        );
    }

    #[test]
    fn syr2k_2d_communication_is_twice_syrk_2d() {
        let (n1, n2, c) = (36, 8, 3);
        let a = seeded_matrix::<f64>(n1, n2, 7);
        let b = seeded_matrix::<f64>(n1, n2, 8);
        let s2 = syr2k_2d(&a, &b, c).unwrap();
        let s1 = crate::try_syrk_2d(&a, c, CostModel::bandwidth_only(), None).unwrap();
        assert_eq!(s2.cost.max_words_sent(), 2 * s1.cost.max_words_sent());
        // Same latency: chunks are paired into the same messages.
        assert_eq!(s2.cost.max_messages(), s1.cost.max_messages());
    }

    #[test]
    #[should_panic(expected = "identical shapes")]
    fn shape_mismatch_rejected() {
        let a = Matrix::<f64>::zeros(4, 3);
        let b = Matrix::<f64>::zeros(4, 2);
        let _ = syr2k_1d(&a, &b, 2);
    }
}
